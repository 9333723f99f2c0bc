(* Automatic structure detection (the Stepanov release-note story: the
   library inspects the concrete matrix and picks the most refined
   structure it satisfies, and the kernel selection follows).

   The classification is sound by construction — every branch goes
   through the strict Mat packers, which refuse a representation the
   matrix does not satisfy exactly — and deterministic: one pass
   computes the bandwidths, symmetry and the nonzero count, then the
   most refined applicable structure wins in a fixed priority order. *)

module Tel = Gp_telemetry.Tel

type profile = {
  pr_lo : int; (* max sub-diagonal distance of a nonzero *)
  pr_hi : int; (* max super-diagonal distance of a nonzero *)
  pr_nnz : int;
  pr_symmetric : bool;
}

(* Int compares, not the polymorphic [max]; row offsets hoisted; and the
   symmetry scan of row [i] against column [i] stops at the first
   mismatch, since one is enough. A non-square matrix is never
   symmetric. *)
let profile (m : Mat.dense) =
  let n = m.Mat.n_rows and cols = m.Mat.n_cols and d = m.Mat.d in
  let lo = ref 0 and hi = ref 0 and nnz = ref 0 and sym = ref (n = cols) in
  for i = 0 to n - 1 do
    let row = i * cols in
    for j = 0 to cols - 1 do
      if d.(row + j) <> 0.0 then begin
        incr nnz;
        if i > j then (if i - j > !lo then lo := i - j)
        else if j - i > !hi then hi := j - i
      end
    done;
    let j = ref 0 in
    while !sym && !j < i do
      if d.(row + !j) <> d.((!j * cols) + i) then sym := false;
      incr j
    done
  done;
  { pr_lo = !lo; pr_hi = !hi; pr_nnz = !nnz; pr_symmetric = !sym }

let sparse_or_dense (m : Mat.dense) p =
  if p.pr_nnz * 4 <= m.Mat.n_rows * m.Mat.n_cols then Mat.Csr (Mat.pack_csr m)
  else Mat.Dense m

(* Priority: diagonal, then triangular, then symmetric, then banded
   (band no wider than half the order), then CSR (at most quarter
   fill), then dense. The packers re-verify every claim. *)
let classify_quiet (m : Mat.dense) =
  let n = m.Mat.n_rows in
  let p = profile m in
  if n <> m.Mat.n_cols then sparse_or_dense m p
  else
    match
      if p.pr_lo = 0 && p.pr_hi = 0 then Mat.pack_diagonal m else None
    with
    | Some d -> Mat.Diagonal d
    | None -> (
      match
        if p.pr_lo = 0 || p.pr_hi = 0 then Mat.pack_triangular m else None
      with
      | Some t -> Mat.Triangular t
      | None -> (
        match if p.pr_symmetric then Mat.pack_symmetric m else None with
        | Some s -> Mat.Symmetric s
        | None -> (
          match
            if p.pr_lo + p.pr_hi + 1 <= n / 2 then
              Mat.pack_banded ~lo:p.pr_lo ~hi:p.pr_hi m
            else None
          with
          | Some b -> Mat.Banded b
          | None -> sparse_or_dense m p)))

let classify m =
  Tel.with_span ~name:"structla.detect" @@ fun () ->
  let r = classify_quiet m in
  if Tel.is_enabled () then begin
    Tel.count "gp_structla_detect_total" 1
      ~labels:[ ("structure", Mat.structure_name r) ];
    Tel.attr "structure" (Mat.structure_name r)
  end;
  r
