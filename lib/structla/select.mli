(** Concept-guided kernel selection.

    Three {!Gp_concepts.Overload} generics — matvec, matmul, solve —
    with one candidate per specialised kernel, guarded by the concept
    the kernel requires. Resolution is nominal against the argument's
    {!Mat.carrier} type and the most refined matching guard wins, so a
    diagonal matrix is served by the O(n) kernels, a banded one by the
    O(n·b) matvec with a dense-solve fallback, and so on.

    The registry must contain the {!Decls.declare} world. *)

type Gp_concepts.Overload.dyn +=
  | Dmat of Mat.t
  | Dvec of float array

type t = {
  g_matvec : Gp_concepts.Overload.generic;
  g_matmul : Gp_concepts.Overload.generic;
  g_solve : Gp_concepts.Overload.generic;
}

type op = Matvec | Matmul | Solve

val op_name : op -> string
val create : unit -> t
val generic : t -> op -> Gp_concepts.Overload.generic

val resolve :
  ?memo:Gp_concepts.Check.memo ->
  Gp_concepts.Registry.t -> t -> op -> Mat.t -> Gp_concepts.Overload.resolution
(** Resolution only — what the bench times as dispatch overhead and
    what the ambiguity/miss tests inspect. [?memo] is handed to
    {!Gp_concepts.Overload.resolve}: with a verdict memo kept for this
    registry, a carrier resolved before is answered from its remembered
    guard checks (what C++ does once per type at compile time). The
    resolution is the same with or without it; leave it out when the
    registry is a throwaway world. The three operations below take it
    likewise. *)

val matvec :
  ?memo:Gp_concepts.Check.memo ->
  Gp_concepts.Registry.t -> t -> Mat.t -> float array ->
  (string * float array, string) result
(** [Ok (kernel_name, y)]; [Error] renders the resolution diagnostic on
    ambiguity or no match. Emits a [structla.matvec] span and a
    [gp_structla_kernel_total] counter labelled by winning kernel (the
    other operations likewise). *)

val matmul :
  ?memo:Gp_concepts.Check.memo ->
  Gp_concepts.Registry.t -> t -> Mat.t -> Mat.t -> (string * Mat.t, string) result

val solve :
  ?memo:Gp_concepts.Check.memo ->
  Gp_concepts.Registry.t -> t -> Mat.t -> float array ->
  (string * float array, string) result
