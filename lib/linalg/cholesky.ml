(* The lower band, row-major: entry (i, j), i − p <= j <= i, at
   i·(p + 1) + (j − i + p). Row i's entries therefore sit at [row + j]
   with row = i·(p + 1) + p − i, which is how the loops index them. *)
type t = { n : int; p : int; data : float array }

let band ~n ~p =
  if n < 0 || p < 0 then invalid_arg "Cholesky.band: negative size";
  { n; p; data = Array.make (n * (p + 1)) 0.0 }

let row t i = (i * (t.p + 1)) + t.p - i

let get t i j =
  let i, j = if j > i then (j, i) else (i, j) in
  if j < 0 || i >= t.n then invalid_arg "Cholesky.get: index out of range";
  if i - j > t.p then 0.0 else t.data.(row t i + j)

let set t i j v =
  if j < 0 || j > i || i >= t.n || i - j > t.p then
    invalid_arg "Cholesky.set: outside the lower band";
  t.data.(row t i + j) <- v

(* Row by row: g_ij = (a_ij − Σ_k g_ik·g_jk) / g_jj over the columns k
   both rows hold, then g_ii = sqrt (a_ii − Σ_k g_ik²). Column j >= i − p
   of row j starts at j − p <= i − p, so both rows hold every k from
   max 0 (i − p). *)
let factor t =
  let p = t.p and d = t.data in
  let rec rows i =
    i = t.n
    ||
    let ri = row t i and k0 = max 0 (i - p) in
    let rec cols j =
      let rj = row t j in
      let acc = ref d.(ri + j) in
      for k = k0 to j - 1 do
        acc := !acc -. (d.(ri + k) *. d.(rj + k))
      done;
      if j < i then begin
        d.(ri + j) <- !acc /. d.(rj + j);
        cols (j + 1)
      end
      else if !acc > 0.0 then begin
        d.(ri + i) <- sqrt !acc;
        true
      end
      else false
    in
    cols k0 && rows (i + 1)
  in
  rows 0

let standard_form t dg =
  let n = t.n and p = t.p and g = t.data in
  if Vec.dim dg <> n then invalid_arg "Cholesky.standard_form: dimension mismatch";
  let h = Matrix.create n n in
  let x = h.Matrix.data in
  (* M = G⁻¹·diag(d), lower triangular: row i of G·M is d_i·e_i, so
     row i is d_i·e_i minus g_ik times row k (columns 0..k) for each k
     in the band, divided by g_ii *)
  for i = 0 to n - 1 do
    let ri = i * n and gi = row t i in
    for k = max 0 (i - p) to i - 1 do
      Row_update.sub x ri g.(gi + k) x (k * n) (k + 1)
    done;
    x.(ri + i) <- dg.(i);
    let gii = g.(gi + i) in
    for c = 0 to i do
      x.(ri + c) <- x.(ri + c) /. gii
    done
  done;
  (* H = M·G⁻ᵀ: row i of H solves G·hᵀ = (row i of M)ᵀ, and its entries
     up to column i need only the row's own entries up to there, so
     each row turns into H's in place. Unchecked: k runs over row c's
     band, inside both the band and the n×n storage. *)
  for i = 0 to n - 1 do
    let ri = i * n in
    for c = 0 to i do
      let gc = row t c in
      let acc = ref x.(ri + c) in
      for k = max 0 (c - p) to c - 1 do
        acc :=
          !acc -. (Array.unsafe_get g (gc + k) *. Array.unsafe_get x (ri + k))
      done;
      x.(ri + c) <- !acc /. g.(gc + c)
    done
  done;
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      x.((i * n) + j) <- x.((j * n) + i)
    done
  done;
  h
