(** Concept-based overloading (paper Section 2.1).

    A generic function holds candidate implementations, each guarded by a
    concept its argument types must model. Resolution checks the guards
    (nominally by default, so semantic refinements count) and picks the
    candidate whose guard transitively refines every other matching
    guard; incomparable maxima are reported as ambiguous, and a total
    miss returns the per-candidate check reports — the call-site
    diagnostics of Section 2.1. *)

type dyn = ..
(** Dynamically-typed argument/result payloads; client libraries extend
    this with their own constructors. *)

type dyn += Unit

type candidate = {
  cand_name : string;
  cand_guard : string;  (** concept the argument types must model *)
  cand_impl : dyn list -> dyn;
}

type generic = { gen_name : string; mutable candidates : candidate list }

type resolution =
  | Selected of candidate * candidate list
      (** winner, plus less-refined candidates that also matched *)
  | Ambiguous of candidate list
  | No_match of (string * Check.report) list

val create : string -> generic
val add_candidate : generic -> name:string -> guard:string -> (dyn list -> dyn) -> unit

val resolve :
  ?mode:Check.mode ->
  ?memo:Check.memo ->
  Registry.t ->
  generic ->
  Ctype.t list ->
  resolution
(** Default mode is {!Check.Nominal}. With [~memo], every guard check
    goes through {!Check.check}[ ~memo]: a guard already checked against
    this world is answered from the memo, so resolving a call site a
    second time costs lookups, not checks. The resolution is the one a
    fresh call returns — the memo empties itself whenever the world or
    the certifications change. *)

val resolve_first_match :
  ?mode:Check.mode -> Registry.t -> generic -> Ctype.t list -> resolution
(** Ablation: pick the first candidate whose guard holds, ignoring
    refinement ranking. Demonstrably wrong when a general candidate
    precedes a specialised one — see the ablation bench. *)

val call :
  ?mode:Check.mode ->
  Registry.t ->
  generic ->
  types:Ctype.t list ->
  values:dyn list ->
  (dyn, string) result
(** Resolve and invoke; ambiguity and no-match become [Error] with a
    rendered diagnostic. *)

val pp_resolution : Format.formatter -> resolution -> unit
