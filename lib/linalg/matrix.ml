type t = { rows : int; cols : int; data : float array }

let create rows cols =
  if rows < 0 || cols < 0 then invalid_arg "Matrix.create: negative dimension";
  { rows; cols; data = Array.make (rows * cols) 0.0 }

let init rows cols f =
  let m = create rows cols in
  for i = 0 to rows - 1 do
    for j = 0 to cols - 1 do
      m.data.((i * cols) + j) <- f i j
    done
  done;
  m

let identity n = init n n (fun i j -> if i = j then 1.0 else 0.0)

let diagonal d =
  let n = Vec.dim d in
  init n n (fun i j -> if i = j then d.(i) else 0.0)

let scalar n a = init n n (fun i j -> if i = j then a else 0.0)

let of_arrays rows_arr =
  let rows = Array.length rows_arr in
  if rows = 0 then invalid_arg "Matrix.of_arrays: empty";
  let cols = Array.length rows_arr.(0) in
  Array.iter
    (fun r ->
      if Array.length r <> cols then
        invalid_arg "Matrix.of_arrays: ragged rows")
    rows_arr;
  init rows cols (fun i j -> rows_arr.(i).(j))

let to_arrays m =
  Array.init m.rows (fun i ->
      Array.init m.cols (fun j -> m.data.((i * m.cols) + j)))

let dims m = (m.rows, m.cols)

let get m i j = m.data.((i * m.cols) + j)

let set m i j x = m.data.((i * m.cols) + j) <- x

let update m i j f =
  let k = (i * m.cols) + j in
  m.data.(k) <- f m.data.(k)

let copy m = { m with data = Array.copy m.data }

let transpose m = init m.cols m.rows (fun i j -> get m j i)

let check_same a b =
  if a.rows <> b.rows || a.cols <> b.cols then
    invalid_arg "Matrix: dimension mismatch"

let add a b =
  check_same a b;
  { a with data = Array.init (Array.length a.data) (fun k -> a.data.(k) +. b.data.(k)) }

let sub a b =
  check_same a b;
  { a with data = Array.init (Array.length a.data) (fun k -> a.data.(k) -. b.data.(k)) }

let scale x m = { m with data = Array.map (fun v -> x *. v) m.data }

(* Cache-friendly ikj loop ordering. *)
let mul a b =
  if a.cols <> b.rows then invalid_arg "Matrix.mul: dimension mismatch";
  let c = create a.rows b.cols in
  let n = b.cols in
  for i = 0 to a.rows - 1 do
    for k = 0 to a.cols - 1 do
      let aik = a.data.((i * a.cols) + k) in
      if aik <> 0.0 then
        for j = 0 to n - 1 do
          c.data.((i * n) + j) <-
            c.data.((i * n) + j) +. (aik *. b.data.((k * n) + j))
        done
    done
  done;
  c

let mul_vec m x =
  if m.cols <> Vec.dim x then invalid_arg "Matrix.mul_vec: dimension mismatch";
  Array.init m.rows (fun i ->
      let acc = ref 0.0 in
      for j = 0 to m.cols - 1 do
        acc := !acc +. (m.data.((i * m.cols) + j) *. x.(j))
      done;
      !acc)

let vec_mul x m =
  if m.rows <> Vec.dim x then invalid_arg "Matrix.vec_mul: dimension mismatch";
  let y = Array.make m.cols 0.0 in
  for i = 0 to m.rows - 1 do
    let xi = x.(i) in
    if xi <> 0.0 then
      for j = 0 to m.cols - 1 do
        y.(j) <- y.(j) +. (xi *. m.data.((i * m.cols) + j))
      done
  done;
  y

let row m i = Array.init m.cols (fun j -> get m i j)

let col m j = Array.init m.rows (fun i -> get m i j)

let set_row m i v =
  if Vec.dim v <> m.cols then invalid_arg "Matrix.set_row: dimension mismatch";
  Array.blit v 0 m.data (i * m.cols) m.cols

let row_sums m =
  Array.init m.rows (fun i ->
      let acc = ref 0.0 in
      for j = 0 to m.cols - 1 do
        acc := !acc +. m.data.((i * m.cols) + j)
      done;
      !acc)

let diag m =
  if m.rows <> m.cols then invalid_arg "Matrix.diag: not square";
  Array.init m.rows (fun i -> get m i i)

let trace m = Vec.sum (diag m)

let norm_inf m =
  let best = ref 0.0 in
  for i = 0 to m.rows - 1 do
    let acc = ref 0.0 in
    for j = 0 to m.cols - 1 do
      acc := !acc +. abs_float m.data.((i * m.cols) + j)
    done;
    if !acc > !best then best := !acc
  done;
  !best

let norm_frobenius m =
  let acc = ref 0.0 in
  Array.iter (fun x -> acc := !acc +. (x *. x)) m.data;
  sqrt !acc

(* a plain loop: a fold over [Float.max] boxes its accumulator per
   entry. A NaN entry sticks, as with [Float.max]. *)
let max_abs m =
  let best = ref 0.0 in
  for k = 0 to Array.length m.data - 1 do
    let v = abs_float m.data.(k) in
    if v > !best || Float.is_nan v then best := v
  done;
  !best

let is_square m = m.rows = m.cols

let approx_equal ?(tol = 1e-9) a b =
  a.rows = b.rows && a.cols = b.cols
  && max_abs (sub a b) <= tol

let blit ~src ~dst i j =
  if i + src.rows > dst.rows || j + src.cols > dst.cols then
    invalid_arg "Matrix.blit: destination too small";
  for r = 0 to src.rows - 1 do
    Array.blit src.data (r * src.cols) dst.data (((i + r) * dst.cols) + j)
      src.cols
  done

let pp ppf m =
  Format.fprintf ppf "@[<v>";
  for i = 0 to m.rows - 1 do
    Format.fprintf ppf "[";
    for j = 0 to m.cols - 1 do
      if j > 0 then Format.fprintf ppf ", ";
      Format.fprintf ppf "%10.5g" (get m i j)
    done;
    Format.fprintf ppf "]";
    if i < m.rows - 1 then Format.fprintf ppf "@,"
  done;
  Format.fprintf ppf "@]"
