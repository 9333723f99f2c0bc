(* Concept-guided kernel selection.

   Three generic functions (matvec, matmul, solve), each holding one
   candidate per kernel, guarded by the concept the kernel needs. A
   call resolves nominally against the argument's carrier type and the
   most refined matching guard wins — a diagonal matrix takes the O(n)
   diagonal candidates everywhere, a banded one takes the banded
   matvec/matmul but falls back to the dense solve, and so on. The
   losing-but-matching candidates come back in the resolution, which is
   how the bench shows what forcing the dense kernel would have cost. *)

module Tel = Gp_telemetry.Tel
open Gp_concepts

type Overload.dyn += Dmat of Mat.t | Dvec of float array

type t = {
  g_matvec : Overload.generic;
  g_matmul : Overload.generic;
  g_solve : Overload.generic;
}

type op = Matvec | Matmul | Solve

let op_name = function
  | Matvec -> "matvec"
  | Matmul -> "matmul"
  | Solve -> "solve"

let mat_vec name = function
  | [ Dmat m; Dvec v ] -> (m, v)
  | _ -> invalid_arg (name ^ ": expected (matrix, vector)")

let mat_mat name = function
  | [ Dmat a; Dmat b ] -> (a, b)
  | _ -> invalid_arg (name ^ ": expected (matrix, matrix)")

let need name = function
  | Some x -> x
  | None -> invalid_arg (name ^ ": representation refuses the structure")

(* Candidate bodies: convert to the packed representation the kernel
   wants — the guard guarantees the carrier models the concept, and the
   Mat converters re-verify. *)

let matvec_generic () =
  let g = Overload.create "matvec" in
  let cand name guard pack kern =
    Overload.add_candidate g ~name ~guard (fun args ->
        let m, v = mat_vec name args in
        Dvec (kern (need name (pack m)) v))
  in
  cand "matvec.diagonal" "DiagonalMatrix" Mat.as_diagonal
    Kernels.matvec_diagonal;
  cand "matvec.banded" "BandedMatrix" Mat.as_banded Kernels.matvec_banded;
  cand "matvec.triangular" "TriangularMatrix" Mat.as_triangular
    Kernels.matvec_triangular;
  cand "matvec.symmetric" "SymmetricMatrix" Mat.as_symmetric
    Kernels.matvec_symmetric;
  Overload.add_candidate g ~name:"matvec.csr" ~guard:"SparseMatrix"
    (fun args ->
      let m, v = mat_vec "matvec.csr" args in
      Dvec (Kernels.matvec_csr (Mat.as_csr m) v));
  Overload.add_candidate g ~name:"matvec.dense" ~guard:"DenseMatrix"
    (fun args ->
      let m, v = mat_vec "matvec.dense" args in
      Dvec (Kernels.matvec_dense (Mat.to_dense m) v));
  g

let matmul_generic () =
  let g = Overload.create "matmul" in
  Overload.add_candidate g ~name:"matmul.diagonal" ~guard:"DiagonalMatrix"
    (fun args ->
      let a, b = mat_mat "matmul.diagonal" args in
      Dmat
        (Mat.Diagonal
           (Kernels.matmul_diagonal
              (need "matmul.diagonal" (Mat.as_diagonal a))
              (need "matmul.diagonal" (Mat.as_diagonal b)))));
  Overload.add_candidate g ~name:"matmul.banded" ~guard:"BandedMatrix"
    (fun args ->
      let a, b = mat_mat "matmul.banded" args in
      Dmat
        (Mat.Banded
           (Kernels.matmul_banded
              (need "matmul.banded" (Mat.as_banded a))
              (need "matmul.banded" (Mat.as_banded b)))));
  Overload.add_candidate g ~name:"matmul.dense" ~guard:"DenseMatrix"
    (fun args ->
      let a, b = mat_mat "matmul.dense" args in
      Dmat (Mat.Dense (Kernels.matmul_dense (Mat.to_dense a) (Mat.to_dense b))));
  g

let solve_generic () =
  let g = Overload.create "solve" in
  Overload.add_candidate g ~name:"solve.diagonal" ~guard:"DiagonalMatrix"
    (fun args ->
      let m, b = mat_vec "solve.diagonal" args in
      Dvec (Kernels.solve_diagonal (need "solve.diagonal" (Mat.as_diagonal m)) b));
  Overload.add_candidate g ~name:"solve.triangular" ~guard:"TriangularMatrix"
    (fun args ->
      let m, b = mat_vec "solve.triangular" args in
      Dvec
        (Kernels.solve_triangular
           (need "solve.triangular" (Mat.as_triangular m))
           b));
  Overload.add_candidate g ~name:"solve.dense" ~guard:"DenseMatrix"
    (fun args ->
      let m, b = mat_vec "solve.dense" args in
      Dvec (Kernels.solve_dense (Mat.to_dense m) b));
  g

let create () =
  {
    g_matvec = matvec_generic ();
    g_matmul = matmul_generic ();
    g_solve = solve_generic ();
  }

let generic t = function
  | Matvec -> t.g_matvec
  | Matmul -> t.g_matmul
  | Solve -> t.g_solve

(* [?memo] is the caller's verdict memo for [reg]: a carrier resolved
   before is answered from remembered guard checks. *)
let resolve ?memo reg t op m =
  Overload.resolve ?memo reg (generic t op) [ Ctype.Named (Mat.carrier m) ]

let selected ?memo reg t op m =
  match resolve ?memo reg t op m with
  | Overload.Selected (c, _) -> Ok c
  | (Overload.Ambiguous _ | Overload.No_match _) as r ->
    Error
      (Format.asprintf "%s on %s: %a" (op_name op) (Mat.carrier m)
         Overload.pp_resolution r)

let span_name = function
  | Matvec -> "structla.matvec"
  | Matmul -> "structla.matmul"
  | Solve -> "structla.solve"

let run ?memo op_tag reg t gen_args m =
  Tel.with_span ~name:(span_name op_tag) @@ fun () ->
  match selected ?memo reg t op_tag m with
  | Error _ as e -> e
  | Ok c ->
    if Tel.is_enabled () then begin
      Tel.count "gp_structla_kernel_total" 1
        ~labels:[ ("kernel", c.Overload.cand_name) ];
      Tel.attr "kernel" c.Overload.cand_name
    end;
    Ok (c.Overload.cand_name, c.Overload.cand_impl gen_args)

let matvec ?memo reg t m v =
  match run ?memo Matvec reg t [ Dmat m; Dvec v ] m with
  | Error _ as e -> e
  | Ok (name, Dvec r) -> Ok (name, r)
  | Ok (name, _) -> Error (name ^ ": candidate returned a non-vector")

let matmul ?memo reg t a b =
  match run ?memo Matmul reg t [ Dmat a; Dmat b ] a with
  | Error _ as e -> e
  | Ok (name, Dmat r) -> Ok (name, r)
  | Ok (name, _) -> Error (name ^ ": candidate returned a non-matrix")

let solve ?memo reg t m b =
  match run ?memo Solve reg t [ Dmat m; Dvec b ] m with
  | Error _ as e -> e
  | Ok (name, Dvec r) -> Ok (name, r)
  | Ok (name, _) -> Error (name ^ ": candidate returned a non-vector")
