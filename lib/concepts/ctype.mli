(** The type language over which concepts state their requirements.

    Concepts never mention concrete OCaml types; they constrain {e type
    expressions} built from named ground types, concept parameters,
    associated-type projections, and constructor applications. Checking a
    model resolves every projection to a ground type (via a
    {!Registry.t}) and compares structurally. *)

type t =
  | Named of string  (** a ground type registered by name, e.g. ["int"] *)
  | Var of string  (** a concept type parameter, e.g. ["G"] *)
  | Assoc of t * string
      (** associated-type projection, e.g. [G.vertex_type] *)
  | App of string * t list
      (** type-constructor application, e.g. [list<int>] *)

val equal : t -> t -> bool
val compare : t -> t -> int

val pp : Format.formatter -> t -> unit

val to_string : t -> string
(** The text {!pp} prints on one line (["list<int, int>"]), built without
    [Format]. Equal strings mean {!equal} types for types over
    identifier names; the cache keys and certification table rely on it. *)

val add_to_buffer : ?break_indent:int -> Buffer.t -> t -> unit
(** Append {!to_string}'s text. With [~break_indent:n], each argument
    separator breaks the line and indents the next argument by [n]
    spaces, as {!pp} does inside a [Format] vertical box. *)

val add_list_to_buffer : ?break_indent:int -> Buffer.t -> t list -> unit
(** A comma-separated list, as [Fmt.(list ~sep:comma pp)] prints it;
    [break_indent] as for {!add_to_buffer}. *)

(** [subst env t] replaces every [Var v] bound in [env]. *)
val subst : (string * t) list -> t -> t

(** Parameter variables occurring in [t], in first-occurrence order. *)
val vars : t -> string list

(** A type expression with no parameter variables. *)
val is_ground : t -> bool
