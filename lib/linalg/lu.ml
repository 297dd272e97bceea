(* A square matrix with a column window per row: outside columns
   lo.(i) .. hi.(i), row i holds only +0. A factorization runs in place
   on the storage and widens the windows where it writes, so they keep
   bounding the packed factors; [reset] clears just the windows before
   the next matrix goes in. *)
type workspace = {
  m : Matrix.t;
  lo : int array;
  hi : int array;
}

type t = {
  ws : workspace; (* packed L (unit diag, below) and U (on and above) *)
  perm : int array; (* row permutation: factored row i came from perm.(i) *)
  sign : int; (* parity of the permutation, for determinants *)
}

exception Singular

let dim f = f.ws.m.Matrix.rows

let workspace n =
  { m = Matrix.create n n; lo = Array.make n 0; hi = Array.make n (-1) }

let reset w ~lo ~hi =
  let n = w.m.Matrix.rows in
  if Array.length lo <> n || Array.length hi <> n then
    invalid_arg "Lu.reset: windows do not match the workspace";
  let d = w.m.Matrix.data in
  for i = 0 to n - 1 do
    if lo.(i) < 0 || hi.(i) >= n then
      invalid_arg "Lu.reset: window out of range";
    let l = w.lo.(i) in
    if w.hi.(i) >= l then Array.fill d ((i * n) + l) (w.hi.(i) - l + 1) 0.0
  done;
  Array.blit lo 0 w.lo 0 n;
  Array.blit hi 0 w.hi 0 n;
  d

(* Crout-style factorization with partial pivoting, in place on the
   workspace (the factors alias it). The inner loops index the flat
   data array directly: without flambda, going through Matrix.get/set
   costs a (non-inlined) call per element, which dominates at the sizes
   the solvers use. The row updates go through [Row_update.sub], whose
   loops are unchecked: a workspace's storage is n×n by construction.

   Three bounds skip exact zeros, so the factors are those of plain
   dense elimination:
   - the windows. The scans below, the row swaps and the transposed
     solves read only inside them; an elimination widens a row's window
     to the fill it writes, and a multiplier is written only over a
     nonzero, which lies inside it already.
   - [kl], the lower bandwidth of the input. Step k touches only rows up
     to k + kl: earlier steps swapped and updated rows up to k − 1 + kl,
     so any row below k + kl is still an input row, zero in column k.
     The pivot search and the eliminations stop there.
   - [last.(i)], the last nonzero column of stored row i. It moves with
     the row through swaps, and an update by pivot row k extends it to
     [last.(k)]. Row updates stop there, so a banded matrix (Q(z) is
     block-tridiagonal in the operative-server count) skips the zeros
     beyond its band.

   [patch]: when [Some eps], zero pivots are replaced by [eps] so the
   factorization always completes (inverse-iteration use). *)
let eliminate ?patch w =
  let n = w.m.Matrix.rows in
  let d = w.m.Matrix.data and lo = w.lo and hi = w.hi in
  let perm = Array.init n (fun i -> i) in
  let last = Array.make n (-1) in
  let kl = ref 0 in
  for i = 0 to n - 1 do
    let ri = i * n and l = lo.(i) in
    let j = ref hi.(i) in
    while !j >= l && d.(ri + !j) = 0.0 do
      decr j
    done;
    last.(i) <- (if !j >= l then !j else -1);
    (* only a nonzero left of column i − kl can widen the band *)
    let j = ref l in
    while !j < i - !kl && d.(ri + !j) = 0.0 do
      incr j
    done;
    if !j < i - !kl then kl := i - !j
  done;
  let kl = !kl in
  let sign = ref 1 in
  let patched = ref false in
  let singular = ref false in
  (try
     for k = 0 to n - 1 do
       let bottom = min (n - 1) (k + kl) in
       (* pivot search in column k *)
       let piv = ref k in
       let best = ref (abs_float d.((k * n) + k)) in
       for i = k + 1 to bottom do
         let v = abs_float d.((i * n) + k) in
         if v > !best then begin
           best := v;
           piv := i
         end
       done;
       if !best = 0.0 then begin
         match patch with
         | None ->
             singular := true;
             raise Exit
         | Some eps ->
             d.((k * n) + k) <- eps;
             last.(k) <- max last.(k) k;
             lo.(k) <- min lo.(k) k;
             hi.(k) <- max hi.(k) k;
             patched := true
       end;
       if !piv <> k then begin
         (* swap rows k and piv, over both windows *)
         let p = !piv in
         let rk = k * n and rp = p * n in
         for j = min lo.(k) lo.(p) to max hi.(k) hi.(p) do
           let tmp = d.(rk + j) in
           d.(rk + j) <- d.(rp + j);
           d.(rp + j) <- tmp
         done;
         let swap a =
           let t = a.(k) in
           a.(k) <- a.(p);
           a.(p) <- t
         in
         swap perm;
         swap last;
         swap lo;
         swap hi;
         sign := - !sign
       end;
       let rk = k * n in
       let pivot = d.(rk + k) in
       let last_k = last.(k) in
       for i = k + 1 to bottom do
         let ri = i * n in
         let a = d.(ri + k) in
         if a <> 0.0 then begin
           let factor = a /. pivot in
           d.(ri + k) <- factor;
           if factor <> 0.0 then begin
             Row_update.sub d (ri + k + 1) factor d (rk + k + 1) (last_k - k);
             if last_k > last.(i) then last.(i) <- last_k;
             if last_k > hi.(i) then hi.(i) <- last_k
           end
         end
       done
     done
   with Exit -> ());
  if !singular then Error `Singular
  else Ok ({ ws = w; perm; sign = !sign }, !patched)

let factor_in_place w = Result.map fst (eliminate w)

(* a bare matrix goes in whole, as a copy: every window spans its row *)
let full_workspace a =
  if not (Matrix.is_square a) then invalid_arg "Lu.factor: not square";
  let n = a.Matrix.rows in
  Row_update.check_storage "Lu.factor" a.Matrix.data ~rows:n ~cols:n;
  { m = Matrix.copy a; lo = Array.make n 0; hi = Array.make n (n - 1) }

let factor a = factor_in_place (full_workspace a)

let factor_exn a =
  match factor a with Ok f -> f | Error `Singular -> raise Singular

(* the pivot that replaces an exact zero: 1e-300 + ε·max|a_ij|, the
   maximum taken over the windows (a NaN propagates, as in
   [Matrix.max_abs]) *)
let regularized_in_place w =
  let n = w.m.Matrix.rows and d = w.m.Matrix.data in
  let best = ref 0.0 in
  for i = 0 to n - 1 do
    for k = (i * n) + w.lo.(i) to (i * n) + w.hi.(i) do
      let v = abs_float d.(k) in
      if v > !best || Float.is_nan v then best := v
    done
  done;
  match eliminate ~patch:(1e-300 +. (epsilon_float *. !best)) w with
  | Ok (f, patched) -> (f, patched)
  | Error `Singular -> assert false

let factor_regularized a = regularized_in_place (full_workspace a)

let solve f b =
  let n = dim f in
  if Vec.dim b <> n then invalid_arg "Lu.solve: dimension mismatch";
  let d = f.ws.m.Matrix.data in
  let x = Array.init n (fun i -> b.(f.perm.(i))) in
  (* forward substitution with unit lower triangle *)
  for i = 1 to n - 1 do
    let ri = i * n in
    let acc = ref x.(i) in
    for j = 0 to i - 1 do
      acc := !acc -. (d.(ri + j) *. x.(j))
    done;
    x.(i) <- !acc
  done;
  (* back substitution with upper triangle *)
  for i = n - 1 downto 0 do
    let ri = i * n in
    let acc = ref x.(i) in
    for j = i + 1 to n - 1 do
      acc := !acc -. (d.(ri + j) *. x.(j))
    done;
    let dii = d.(ri + i) in
    if dii = 0.0 then raise Singular;
    x.(i) <- !acc /. dii
  done;
  x

(* aᵀ x = b  ⇔  Uᵀ Lᵀ P x = b: solve Uᵀ y = b (forward), Lᵀ z = y
   (backward), then undo the permutation. Both sweeps walk the rows of
   the packed factors, as [solve] does: once y_i is known, row i of U
   (resp. L) carries its contribution to the later (resp. earlier)
   unknowns, and only its window can hold a nonzero. *)
let solve_transposed f b =
  let n = dim f in
  if Vec.dim b <> n then invalid_arg "Lu.solve_transposed: dimension mismatch";
  let d = f.ws.m.Matrix.data and lo = f.ws.lo and hi = f.ws.hi in
  let y = Vec.copy b in
  for i = 0 to n - 1 do
    let ri = i * n in
    let dii = d.(ri + i) in
    if dii = 0.0 then raise Singular;
    let yi = y.(i) /. dii in
    y.(i) <- yi;
    Row_update.sub y (i + 1) yi d (ri + i + 1) (hi.(i) - i)
  done;
  for i = n - 1 downto 1 do
    let l = lo.(i) in
    Row_update.sub y l y.(i) d ((i * n) + l) (i - l)
  done;
  let x = Array.make n 0.0 in
  for i = 0 to n - 1 do
    x.(f.perm.(i)) <- y.(i)
  done;
  x

(* [x] (n × cols, its rows already in pivot order) := U⁻¹ L⁻¹ x, one
   whole row of right-hand sides at a time: row i subtracts l_ij times
   row j for j < i, then u_ij times row j for j > i, then divides by
   u_ii. Every entry sees the operations of [solve] in the same order.
   A zero l_ij or u_ij would subtract exact zeros, so its row update is
   skipped: against the factors of λI a solve costs O(n·(n + cols)).
   [lower]: x is lower triangular in the forward sweep, so the update
   by row j stops at column j. The callers allocate [x] as n × cols, so
   the unchecked row updates stay inside it. *)
let substitute ~lower f x =
  let n = dim f in
  let d = f.ws.m.Matrix.data in
  let cols = x.Matrix.cols and xd = x.Matrix.data in
  for i = 1 to n - 1 do
    let ri = i * n and xi = i * cols in
    for j = 0 to i - 1 do
      let l = d.(ri + j) in
      if l <> 0.0 then
        Row_update.sub xd xi l xd (j * cols) (if lower then j + 1 else cols)
    done
  done;
  for i = n - 1 downto 0 do
    let ri = i * n and xi = i * cols in
    for j = i + 1 to n - 1 do
      let u = d.(ri + j) in
      if u <> 0.0 then Row_update.sub xd xi u xd (j * cols) cols
    done;
    let dii = d.(ri + i) in
    if dii = 0.0 then raise Singular;
    for c = 0 to cols - 1 do
      xd.(xi + c) <- xd.(xi + c) /. dii
    done
  done

let solve_matrix f b =
  let n = dim f in
  if b.Matrix.rows <> n then invalid_arg "Lu.solve_matrix: dimension mismatch";
  let cols = b.Matrix.cols in
  Row_update.check_storage "Lu.solve_matrix" b.Matrix.data ~rows:n ~cols;
  let x = Matrix.create n cols in
  for i = 0 to n - 1 do
    Array.blit b.Matrix.data (f.perm.(i) * cols) x.Matrix.data (i * cols) cols
  done;
  substitute ~lower:false f x;
  x

(* P·diag(c) with its columns also put in pivot order is diag(c_perm(i)),
   so the forward sweep keeps the result lower triangular; the columns
   go back to their places at the end, a row at a time through one
   row of scratch. *)
let solve_diagonal f c =
  let n = dim f in
  if Vec.dim c <> n then invalid_arg "Lu.solve_diagonal: dimension mismatch";
  let x = Matrix.create n n in
  let xd = x.Matrix.data in
  for i = 0 to n - 1 do
    xd.((i * n) + i) <- c.(f.perm.(i))
  done;
  substitute ~lower:true f x;
  let row = Array.make n 0.0 in
  for i = 0 to n - 1 do
    let ri = i * n in
    Array.blit xd ri row 0 n;
    for q = 0 to n - 1 do
      xd.(ri + f.perm.(q)) <- row.(q)
    done
  done;
  x

let pivot_condition f =
  let n = dim f in
  let lo = ref infinity and hi = ref 0.0 in
  for i = 0 to n - 1 do
    let d = abs_float (Matrix.get f.ws.m i i) in
    if d < !lo then lo := d;
    if d > !hi then hi := d
  done;
  if !lo = 0.0 then infinity else !hi /. !lo

let det_of_factor f =
  let n = dim f in
  let acc = ref (float_of_int f.sign) in
  for i = 0 to n - 1 do
    acc := !acc *. Matrix.get f.ws.m i i
  done;
  !acc

let det a =
  match factor a with Ok f -> det_of_factor f | Error `Singular -> 0.0

let log_abs_det w =
  match factor_in_place w with
  | Error `Singular -> (neg_infinity, 0)
  | Ok f ->
      let n = dim f in
      let d = f.ws.m.Matrix.data in
      let log_acc = ref 0.0 in
      let sign = ref f.sign in
      for i = 0 to n - 1 do
        let p = d.((i * n) + i) in
        log_acc := !log_acc +. log (abs_float p);
        if p < 0.0 then sign := - !sign
      done;
      (!log_acc, !sign)

let inverse a =
  match factor a with
  | Error `Singular -> Error `Singular
  | Ok f -> (
      try Ok (solve_diagonal f (Array.make (dim f) 1.0))
      with Singular -> Error `Singular)

let solve_system a b =
  match factor a with
  | Error `Singular -> Error `Singular
  | Ok f -> ( try Ok (solve f b) with Singular -> Error `Singular)

(* Deterministic start vector, so a null vector does not depend on the
   run; its formula fixes the reversible answers' bits. *)
let start_vector n =
  Array.init n (fun i -> 0.5 +. (0.5 *. sin (float_of_int ((i * 37) + 11))))

(* unit 2-norm, as [Vec.normalize]. A sweep against a patched 1e-300
   pivot can reach 1e300, whose square overflows the norm; only then
   (or for a norm that underflowed to 0) is the vector first scaled by
   its largest modulus, so every finite, nonzero norm keeps its bits. *)
let unit_vector y =
  let norm = Vec.norm2 y in
  if norm > 0.0 && norm < infinity then Vec.scale (1.0 /. norm) y
  else
    let big = Vec.norm_inf y in
    if big > 0.0 && big < infinity then
      Vec.normalize (Vec.scale (1.0 /. big) y)
    else Vec.normalize y

(* four sweeps of inverse iteration *)
let inverse_iteration solve_fn n =
  let x = ref (unit_vector (start_vector n)) in
  for _ = 1 to 4 do
    x := unit_vector (solve_fn !x)
  done;
  (* the sign [Cvec.normalize] would pick: largest component positive *)
  if !x.(Vec.max_abs_index !x) < 0.0 then Vec.scale (-1.0) !x else !x

let left_null_vector w =
  let f, _ = regularized_in_place w in
  (* uᵀ with aᵀ uᵀ = 0: inverse iteration using the transposed solve *)
  inverse_iteration (solve_transposed f) (dim f)

let null_vector a =
  let f, _ = factor_regularized a in
  inverse_iteration (solve f) (dim f)
