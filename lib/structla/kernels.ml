(* The kernels: one specialised implementation per structure the
   taxonomy knows, plus the naive dense references retained as qcheck
   equivalence oracles (the *_reference idiom). The served dense kernels
   are separate from the references: the same floating-point operations
   in the same order, with the row offsets hoisted out of the inner
   loops, so the tests can hold them to the references bit for bit.

   Next to each kernel lives its exact step count — the number of
   inner-loop multiply-accumulate visits the kernel performs, computed
   from the packed structure alone. Step counts are what bench s6 gates
   on (they are quota-independent, unlike wall time) and what the
   dispatcher charges against the request budget, so the asymptotic
   claims in the concept declarations are checked numbers, not prose.

   Every dimension error names the actual mismatched shapes
   ("matvec: 3x4 * 5"), asserted verbatim by the tests. *)

let bad fmt = Printf.ksprintf invalid_arg fmt

let check_vec op (rows, cols) v =
  if cols <> Array.length v then
    bad "%s: %dx%d * %d" op rows cols (Array.length v)

(* ------------------------------------------------------------------ *)
(* Dense references (the oracles)                                      *)
(* ------------------------------------------------------------------ *)

let matvec_reference (m : Mat.dense) v =
  check_vec "matvec" (m.Mat.n_rows, m.Mat.n_cols) v;
  let n = m.Mat.n_cols in
  Array.init m.Mat.n_rows (fun i ->
      let s = ref 0.0 in
      for j = 0 to n - 1 do
        s := !s +. (m.Mat.d.((i * n) + j) *. v.(j))
      done;
      !s)

let matmul_reference (a : Mat.dense) (b : Mat.dense) =
  if a.Mat.n_cols <> b.Mat.n_rows then
    bad "matmul: %dx%d * %dx%d" a.Mat.n_rows a.Mat.n_cols b.Mat.n_rows
      b.Mat.n_cols;
  let m = a.Mat.n_rows and k = a.Mat.n_cols and n = b.Mat.n_cols in
  let c = Mat.dense_create m n in
  for i = 0 to m - 1 do
    for kk = 0 to k - 1 do
      let av = a.Mat.d.((i * k) + kk) in
      if av <> 0.0 then
        for j = 0 to n - 1 do
          c.Mat.d.((i * n) + j) <-
            c.Mat.d.((i * n) + j) +. (av *. b.Mat.d.((kk * n) + j))
        done
    done
  done;
  c

(* Gaussian elimination with partial pivoting; the dense solve oracle. *)
let solve_reference (m : Mat.dense) b =
  if m.Mat.n_rows <> m.Mat.n_cols then
    bad "solve: %dx%d not square" m.Mat.n_rows m.Mat.n_cols;
  check_vec "solve" (m.Mat.n_rows, m.Mat.n_cols) b;
  let n = m.Mat.n_rows in
  let a = Array.copy m.Mat.d in
  let x = Array.copy b in
  for col = 0 to n - 1 do
    let piv = ref col in
    for r = col + 1 to n - 1 do
      if Float.abs a.((r * n) + col) > Float.abs a.((!piv * n) + col) then
        piv := r
    done;
    if a.((!piv * n) + col) = 0.0 then bad "solve: singular at column %d" col;
    if !piv <> col then begin
      for j = 0 to n - 1 do
        let t = a.((col * n) + j) in
        a.((col * n) + j) <- a.((!piv * n) + j);
        a.((!piv * n) + j) <- t
      done;
      let t = x.(col) in
      x.(col) <- x.(!piv);
      x.(!piv) <- t
    end;
    for r = col + 1 to n - 1 do
      let f = a.((r * n) + col) /. a.((col * n) + col) in
      if f <> 0.0 then begin
        for j = col to n - 1 do
          a.((r * n) + j) <- a.((r * n) + j) -. (f *. a.((col * n) + j))
        done;
        x.(r) <- x.(r) -. (f *. x.(col))
      end
    done
  done;
  for i = n - 1 downto 0 do
    let s = ref x.(i) in
    for j = i + 1 to n - 1 do
      s := !s -. (a.((i * n) + j) *. x.(j))
    done;
    x.(i) <- !s /. a.((i * n) + i)
  done;
  x

(* ------------------------------------------------------------------ *)
(* Specialised matvec                                                  *)
(* ------------------------------------------------------------------ *)

let matvec_diagonal (m : Mat.diagonal) v =
  check_vec "matvec" (m.Mat.dg_n, m.Mat.dg_n) v;
  let y = Array.make m.Mat.dg_n 0.0 in
  for i = 0 to m.Mat.dg_n - 1 do
    y.(i) <- m.Mat.dg.(i) *. v.(i)
  done;
  y

let matvec_banded (m : Mat.banded) v =
  let n = m.Mat.bd_n and lo = m.Mat.bd_lo and hi = m.Mat.bd_hi in
  check_vec "matvec" (n, n) v;
  let w = lo + hi + 1 and bd = m.Mat.bd in
  let y = Array.make n 0.0 in
  for i = 0 to n - 1 do
    let band = (i * w) - i + lo in
    let s = ref 0.0 in
    for j = Int.max 0 (i - lo) to Int.min (n - 1) (i + hi) do
      s := !s +. (bd.(band + j) *. v.(j))
    done;
    y.(i) <- !s
  done;
  y

let matvec_triangular (m : Mat.triangular) v =
  let n = m.Mat.tr_n in
  check_vec "matvec" (n, n) v;
  let tr = m.Mat.tr and upper = m.Mat.tr_upper in
  let y = Array.make n 0.0 in
  for i = 0 to n - 1 do
    let row = i * n in
    let s = ref 0.0 in
    let j0, j1 = if upper then (i, n - 1) else (0, i) in
    for j = j0 to j1 do
      s := !s +. (tr.(row + j) *. v.(j))
    done;
    y.(i) <- !s
  done;
  y

(* Each stored element a_ij (i > j) feeds both y_i and y_j: one visit,
   two multiply-accumulates — the step count is the n(n+1)/2 visits. *)
let matvec_symmetric (m : Mat.symmetric) v =
  let n = m.Mat.sy_n in
  check_vec "matvec" (n, n) v;
  let y = Array.make n 0.0 in
  for i = 0 to n - 1 do
    let row = i * (i + 1) / 2 in
    y.(i) <- y.(i) +. (m.Mat.sy.(row + i) *. v.(i));
    for j = 0 to i - 1 do
      let x = m.Mat.sy.(row + j) in
      y.(i) <- y.(i) +. (x *. v.(j));
      y.(j) <- y.(j) +. (x *. v.(i))
    done
  done;
  y

let matvec_csr (m : Mat.csr) v =
  check_vec "matvec" (m.Mat.cs_rows, m.Mat.cs_cols) v;
  let ptr = m.Mat.cs_ptr and idx = m.Mat.cs_idx and vals = m.Mat.cs_val in
  let y = Array.make m.Mat.cs_rows 0.0 in
  for i = 0 to m.Mat.cs_rows - 1 do
    let s = ref 0.0 in
    for p = ptr.(i) to ptr.(i + 1) - 1 do
      s := !s +. (vals.(p) *. v.(idx.(p)))
    done;
    y.(i) <- !s
  done;
  y

let matvec_dense (m : Mat.dense) v =
  check_vec "matvec" (m.Mat.n_rows, m.Mat.n_cols) v;
  let n = m.Mat.n_cols and d = m.Mat.d in
  let y = Array.make m.Mat.n_rows 0.0 in
  for i = 0 to m.Mat.n_rows - 1 do
    let row = i * n in
    let s = ref 0.0 in
    for j = 0 to n - 1 do
      s := !s +. (d.(row + j) *. v.(j))
    done;
    y.(i) <- !s
  done;
  y

(* ------------------------------------------------------------------ *)
(* Specialised matmul (square, structure-closed products)              *)
(* ------------------------------------------------------------------ *)

let matmul_diagonal (a : Mat.diagonal) (b : Mat.diagonal) =
  if a.Mat.dg_n <> b.Mat.dg_n then
    bad "matmul: %dx%d * %dx%d" a.Mat.dg_n a.Mat.dg_n b.Mat.dg_n b.Mat.dg_n;
  let dg = Array.make a.Mat.dg_n 0.0 in
  for i = 0 to a.Mat.dg_n - 1 do
    dg.(i) <- a.Mat.dg.(i) *. b.Mat.dg.(i)
  done;
  { Mat.dg_n = a.Mat.dg_n; dg }

(* The band widens: (lo_a + lo_b, hi_a + hi_b), clamped to the order. *)
let matmul_banded (a : Mat.banded) (b : Mat.banded) =
  if a.Mat.bd_n <> b.Mat.bd_n then
    bad "matmul: %dx%d * %dx%d" a.Mat.bd_n a.Mat.bd_n b.Mat.bd_n b.Mat.bd_n;
  let n = a.Mat.bd_n in
  let lo = min (n - 1) (a.Mat.bd_lo + b.Mat.bd_lo) in
  let hi = min (n - 1) (a.Mat.bd_hi + b.Mat.bd_hi) in
  let w = lo + hi + 1 in
  let wa = a.Mat.bd_lo + a.Mat.bd_hi + 1 in
  let wb = b.Mat.bd_lo + b.Mat.bd_hi + 1 in
  let c = Array.make (n * w) 0.0 in
  for i = 0 to n - 1 do
    for j = max 0 (i - lo) to min (n - 1) (i + hi) do
      let s = ref 0.0 in
      let k0 = max (max 0 (i - a.Mat.bd_lo)) (max 0 (j - b.Mat.bd_hi)) in
      let k1 =
        min (min (n - 1) (i + a.Mat.bd_hi)) (min (n - 1) (j + b.Mat.bd_lo))
      in
      for k = k0 to k1 do
        s :=
          !s
          +. a.Mat.bd.((i * wa) + (k - i + a.Mat.bd_lo))
             *. b.Mat.bd.((k * wb) + (j - k + b.Mat.bd_lo))
      done;
      c.((i * w) + (j - i + lo)) <- !s
    done
  done;
  { Mat.bd_n = n; bd_lo = lo; bd_hi = hi; bd = c }

let matmul_dense (a : Mat.dense) (b : Mat.dense) =
  if a.Mat.n_cols <> b.Mat.n_rows then
    bad "matmul: %dx%d * %dx%d" a.Mat.n_rows a.Mat.n_cols b.Mat.n_rows
      b.Mat.n_cols;
  let m = a.Mat.n_rows and k = a.Mat.n_cols and n = b.Mat.n_cols in
  let c = Mat.dense_create m n in
  let ad = a.Mat.d and bd = b.Mat.d and cd = c.Mat.d in
  for i = 0 to m - 1 do
    let arow = i * k and crow = i * n in
    for kk = 0 to k - 1 do
      let av = ad.(arow + kk) in
      if av <> 0.0 then begin
        let brow = kk * n in
        for j = 0 to n - 1 do
          cd.(crow + j) <- cd.(crow + j) +. (av *. bd.(brow + j))
        done
      end
    done
  done;
  c

(* ------------------------------------------------------------------ *)
(* Specialised solve                                                   *)
(* ------------------------------------------------------------------ *)

let solve_diagonal (m : Mat.diagonal) b =
  check_vec "solve" (m.Mat.dg_n, m.Mat.dg_n) b;
  let dg = m.Mat.dg in
  for i = 0 to Array.length dg - 1 do
    if dg.(i) = 0.0 then bad "solve: singular at column %d" i
  done;
  let x = Array.make m.Mat.dg_n 0.0 in
  for i = 0 to m.Mat.dg_n - 1 do
    x.(i) <- b.(i) /. dg.(i)
  done;
  x

let solve_triangular (m : Mat.triangular) b =
  let n = m.Mat.tr_n in
  check_vec "solve" (n, n) b;
  let x = Array.copy b in
  let diag i = m.Mat.tr.((i * n) + i) in
  for i = 0 to n - 1 do
    if diag i = 0.0 then bad "solve: singular at column %d" i
  done;
  if m.Mat.tr_upper then
    for i = n - 1 downto 0 do
      let s = ref x.(i) in
      for j = i + 1 to n - 1 do
        s := !s -. (m.Mat.tr.((i * n) + j) *. x.(j))
      done;
      x.(i) <- !s /. diag i
    done
  else
    for i = 0 to n - 1 do
      let s = ref x.(i) in
      for j = 0 to i - 1 do
        s := !s -. (m.Mat.tr.((i * n) + j) *. x.(j))
      done;
      x.(i) <- !s /. diag i
    done;
  x

(* [solve_reference] with each row offset computed once and the pivot
   magnitude kept while scanning; the pivot row does not change while
   it eliminates below it, so its diagonal entry is read once. *)
let solve_dense (m : Mat.dense) b =
  if m.Mat.n_rows <> m.Mat.n_cols then
    bad "solve: %dx%d not square" m.Mat.n_rows m.Mat.n_cols;
  check_vec "solve" (m.Mat.n_rows, m.Mat.n_cols) b;
  let n = m.Mat.n_rows in
  let a = Array.copy m.Mat.d in
  let x = Array.copy b in
  for col = 0 to n - 1 do
    let piv = ref col in
    let best = ref (Float.abs a.((col * n) + col)) in
    for r = col + 1 to n - 1 do
      let y = Float.abs a.((r * n) + col) in
      if y > !best then begin
        piv := r;
        best := y
      end
    done;
    let crow = col * n and prow = !piv * n in
    if a.(prow + col) = 0.0 then bad "solve: singular at column %d" col;
    if prow <> crow then begin
      for j = 0 to n - 1 do
        let t = a.(crow + j) in
        a.(crow + j) <- a.(prow + j);
        a.(prow + j) <- t
      done;
      let t = x.(col) in
      x.(col) <- x.(!piv);
      x.(!piv) <- t
    end;
    let pivot = a.(crow + col) in
    for r = col + 1 to n - 1 do
      let rrow = r * n in
      let f = a.(rrow + col) /. pivot in
      if f <> 0.0 then begin
        for j = col to n - 1 do
          a.(rrow + j) <- a.(rrow + j) -. (f *. a.(crow + j))
        done;
        x.(r) <- x.(r) -. (f *. x.(col))
      end
    done
  done;
  for i = n - 1 downto 0 do
    let row = i * n in
    let s = ref x.(i) in
    for j = i + 1 to n - 1 do
      s := !s -. (a.(row + j) *. x.(j))
    done;
    x.(i) <- !s /. a.(row + i)
  done;
  x

(* ------------------------------------------------------------------ *)
(* Exact step counts                                                   *)
(* ------------------------------------------------------------------ *)

(* Inner-loop visits, computed from the structure parameters — exact
   trip counts of the loops above, not estimates. *)

let band_row_width ~n ~lo ~hi i = min (n - 1) (i + hi) - max 0 (i - lo) + 1

let matvec_steps = function
  | Mat.Dense m -> m.Mat.n_rows * m.Mat.n_cols
  | Mat.Diagonal m -> m.Mat.dg_n
  | Mat.Banded m ->
    let t = ref 0 in
    for i = 0 to m.Mat.bd_n - 1 do
      t := !t + band_row_width ~n:m.Mat.bd_n ~lo:m.Mat.bd_lo ~hi:m.Mat.bd_hi i
    done;
    !t
  | Mat.Triangular m -> m.Mat.tr_n * (m.Mat.tr_n + 1) / 2
  | Mat.Symmetric m -> m.Mat.sy_n * (m.Mat.sy_n + 1) / 2
  | Mat.Csr m -> Mat.nnz_csr m

let matmul_steps = function
  | Mat.Dense m -> m.Mat.n_rows * m.Mat.n_cols * m.Mat.n_cols
  | Mat.Diagonal m -> m.Mat.dg_n
  | Mat.Banded m ->
    let n = m.Mat.bd_n in
    let lo = min (n - 1) (2 * m.Mat.bd_lo)
    and hi = min (n - 1) (2 * m.Mat.bd_hi) in
    let t = ref 0 in
    for i = 0 to n - 1 do
      for j = max 0 (i - lo) to min (n - 1) (i + hi) do
        let k0 = max (max 0 (i - m.Mat.bd_lo)) (max 0 (j - m.Mat.bd_hi)) in
        let k1 =
          min
            (min (n - 1) (i + m.Mat.bd_hi))
            (min (n - 1) (j + m.Mat.bd_lo))
        in
        if k1 >= k0 then t := !t + (k1 - k0 + 1)
      done
    done;
    !t
  | (Mat.Triangular _ | Mat.Symmetric _ | Mat.Csr _) as m ->
    (* served by the dense fallback kernel *)
    let r, c = Mat.dims m in
    r * c * c

let solve_steps = function
  | Mat.Diagonal m -> m.Mat.dg_n
  | Mat.Triangular m -> m.Mat.tr_n * (m.Mat.tr_n + 1) / 2
  | (Mat.Dense _ | Mat.Banded _ | Mat.Symmetric _ | Mat.Csr _) as m ->
    (* elimination + back substitution on the dense fallback *)
    let n, _ = Mat.dims m in
    (n * n * n / 3) + (n * n)
