(** The registry: everything the concept engine knows about a world of
    types — concept definitions, per-type structural descriptions,
    free operations, and declared models.

    Structural information supports ML-signature-style checking; declared
    models support type-class-style nominal conformance (both discussed
    in paper Section 2.1). The checker verifies the structure behind
    every nominal declaration, so a declared model is a checked claim. *)

type type_desc = {
  td_name : string;
  td_assoc : (string * Ctype.t) list;  (** associated-type bindings *)
  td_doc : string;
}

type model = {
  mo_concept : string;
  mo_args : Ctype.t list;
  mo_axioms_asserted : string list;
      (** axiom names the declarer vouches for (or has proved) *)
  mo_complexity : (string * Complexity.t) list;
      (** declared bound per operation *)
  mo_doc : string;
}

type t
(** A registry is a root or an overlay. A root owns its declarations and
    hash indexes over them, kept inside the value and updated by every
    declaration, so lookups never rebuild anything. An overlay
    ({!overlay}) is a scope over a parent: lookups read the overlay's
    own declarations first, then ask the parent, whose indexes are
    shared, never copied. Creating a root counts one in the telemetry
    counter [gp_registry_index_rebuilds_total]; an overlay counts
    nothing. *)

val create : unit -> t
(** A fresh, empty root. *)

val overlay : t -> t
(** [overlay parent] is an empty scope over [parent] — G's lexically
    scoped model declarations (Siek & Lumsdaine), applied to the
    runtime engine. Declarations go into the overlay only; [parent]'s
    contents, generation and index are unchanged by them. The overlay
    answers every query exactly as a fresh root holding [parent]'s
    declarations followed by the overlay's would: local names shadow
    the parent's, {!find_ops} and {!find_model} stay most recent first,
    a name already declared in the parent is a {!Duplicate}, and
    refinement runs across the layers in both directions. *)

val generation : t -> int
(** Monotone counter bumped by every declaration. An overlay's is its
    parent's plus its own declarations — the generation of the
    equivalent fresh root. Memo caches over registry-dependent queries
    — e.g. {!Propagate.closure} — include it in their keys, so
    mutating the registry invalidates cached answers without any
    notification machinery. *)

exception Duplicate of string

(** {2 Declarations} *)

val declare_concept : t -> Concept.t -> unit
(** Raises {!Duplicate} on a name collision. *)

val declare_type :
  ?doc:string -> ?assoc:(string * Ctype.t) list -> t -> string -> unit
(** Raises {!Duplicate} on a name collision. *)

val extend_type : t -> string -> (string * Ctype.t) list -> unit
(** [extend_type t name assoc] appends to a declared type's
    associated-type bindings those of [assoc] whose field is not yet
    bound, and bumps the generation. In an overlay over the type's
    declaring layer the extended description shadows the parent's.
    Raises [Invalid_argument] when [name] is undeclared. *)

val declare_op : ?doc:string -> t -> string -> Ctype.t list -> Ctype.t -> unit

val declare_model :
  ?doc:string ->
  ?axioms:string list ->
  ?complexity:(string * Complexity.t) list ->
  t ->
  string ->
  Ctype.t list ->
  unit

(** {2 Lookup} *)

val find_concept : t -> string -> Concept.t option
val find_type : t -> string -> type_desc option
val find_model : t -> string -> Ctype.t list -> model option
val concepts : t -> Concept.t list
val models : t -> model list
(** All concepts and models, most recent first (an overlay's own before
    its parent's). *)

val resolve : t -> Ctype.t -> Ctype.t option
(** Resolve a type expression to ground normal form by following
    associated-type bindings; [None] when a projection is unbound. *)

val find_ops : t -> string -> Ctype.t list -> Concept.signature list
(** All registered operations matching name and parameter types. Several
    may differ only in return type (e.g. the nullary identity of every
    monoid carrier). *)

val find_op : t -> string -> Ctype.t list -> Concept.signature option

(** {2 Refinement} *)

val refines : t -> string -> string -> bool
(** Reflexive-transitive refinement between concept names. *)

val refinement_depth : t -> string -> int
(** Length of the longest refinement chain below a concept; used for
    most-refined-wins overload resolution. *)
