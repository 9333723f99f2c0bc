(** Concept checking with call-site-quality diagnostics.

    Reproduces the paper's Section 2.1 demand: when a type fails a
    concept, the error names the violated requirement of the concept at
    the point of use, never the internals of a generic implementation.

    Two modes: {e structural} (ML-signature style: structure alone
    decides) and {e nominal} (type-class style: a declared model is
    additionally required — necessary to distinguish purely semantic
    refinements such as Forward vs Input iterators). *)

type failure =
  | Unknown_concept of string
  | Unknown_type of Ctype.t
  | Arity_mismatch of { concept : string; expected : int; got : int }
  | Unresolved_type of { ty : Ctype.t; context : string }
  | Missing_assoc_type of { ty : Ctype.t; assoc : string }
  | Missing_operation of { expected : Concept.signature }
  | Return_type_mismatch of { op : string; expected : Ctype.t; found : Ctype.t }
  | Same_type_violated of { left : Ctype.t; right : Ctype.t }
  | Refinement_failed of {
      concept : string;
      args : Ctype.t list;
      causes : failure list;
    }
  | Nested_model_failed of {
      concept : string;
      args : Ctype.t list;
      causes : failure list;
    }
  | Complexity_too_weak of {
      op : string;
      required : Complexity.t;
      declared : Complexity.t;
    }
  | No_model_declared of { concept : string; args : Ctype.t list }

type warning =
  | Axiom_asserted_not_proved of { concept : string; axiom : string }
  | Axiom_not_asserted of { concept : string; axiom : string }
  | No_complexity_declared of { concept : string; op : string }

type report = {
  rep_concept : string;
  rep_args : Ctype.t list;
  rep_failures : failure list;
  rep_warnings : warning list;
}

val ok : report -> bool

type mode = Structural | Nominal

type memo
(** Remembered verdicts for one world: whole-check reports keyed by
    [(mode, concept, args)]. Once a world is fixed, "[args] model
    [concept]" has a single answer, so a check against it need only run
    once (a concept map is checked once and looked up afterwards, as in
    the C++0x concepts design).

    A memo is tagged with the registry it was last used with (by
    identity), that registry's {!Registry.generation}, and an epoch that
    {!certify_axiom} bumps whenever it adds an entry. Using it when any
    of the three differs empties it first, so a declaration or a new
    certification is never answered from stale verdicts. Only whole
    checks are remembered, never the nested judgments inside one, which
    the checker assumes true on refinement cycles. The table holds at
    most {!memo_limit} entries and is emptied when it reaches that, so
    client-chosen names cannot grow it without bound. *)

val memo : unit -> memo
(** An empty memo; it allocates a small table and grows on demand. *)

val memo_limit : int
(** The entry count at which a memo empties itself (1024). *)

val memo_size : memo -> int
(** Verdicts currently remembered. *)

val check :
  ?mode:mode -> ?memo:memo -> Registry.t -> string -> Ctype.t list -> report
(** [check reg concept args]: do the ground types [args] model
    [concept]? Defaults to {!Structural}. With [~memo], a verdict the
    memo holds for this world is returned as is (the same report value)
    and a computed one is remembered. Hit or miss, the [concepts.check]
    span and the [gp_checks_total], [gp_check_failures_total] and
    [gp_check_warnings_total] counters are emitted alike; a hit also
    counts one in [gp_check_memo_hits_total]. *)

val models : ?mode:mode -> Registry.t -> string -> Ctype.t list -> bool

(** {2 Axiom certification}

    Semantic axioms cannot be checked structurally; a model either
    {e asserts} them (producing a warning) or they are {e certified} by a
    checked proof (see gp_simplicissimus's [Certify] and gp_athena). *)

val certify_axiom : concept:string -> axiom:string -> args:Ctype.t list -> unit
val axiom_certified : concept:string -> axiom:string -> args:Ctype.t list -> bool

(** {2 Printing} *)

val pp_failure : Format.formatter -> failure -> unit
val pp_warning : Format.formatter -> warning -> unit
val pp_report : Format.formatter -> report -> unit
(** For people: the CLI and examples print reports with it, and the tests
    hold {!add_report} to it byte for byte. *)

val add_report : Buffer.t -> report -> unit
(** Append exactly the text [Fmt.str "%a" pp_report r] builds, line
    breaks and indentation included, without [Format]. The served check
    path renders reports with it. *)
