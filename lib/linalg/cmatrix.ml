type t = { rows : int; cols : int; data : Cx.t array }

let create rows cols =
  if rows < 0 || cols < 0 then invalid_arg "Cmatrix.create: negative dimension";
  { rows; cols; data = Array.make (rows * cols) Cx.zero }

let init rows cols f =
  let m = create rows cols in
  for i = 0 to rows - 1 do
    for j = 0 to cols - 1 do
      m.data.((i * cols) + j) <- f i j
    done
  done;
  m

let identity n = init n n (fun i j -> if i = j then Cx.one else Cx.zero)

let of_real (a : Matrix.t) =
  init a.Matrix.rows a.Matrix.cols (fun i j -> Cx.of_float (Matrix.get a i j))

let dims m = (m.rows, m.cols)

let get m i j = m.data.((i * m.cols) + j)

let set m i j x = m.data.((i * m.cols) + j) <- x

let copy m = { m with data = Array.copy m.data }

let transpose m = init m.cols m.rows (fun i j -> get m j i)

let conj_transpose m = init m.cols m.rows (fun i j -> Cx.conj (get m j i))

let check_same a b =
  if a.rows <> b.rows || a.cols <> b.cols then
    invalid_arg "Cmatrix: dimension mismatch"

let add a b =
  check_same a b;
  { a with data = Array.init (Array.length a.data) (fun k -> Cx.add a.data.(k) b.data.(k)) }

let sub a b =
  check_same a b;
  { a with data = Array.init (Array.length a.data) (fun k -> Cx.sub a.data.(k) b.data.(k)) }

let scale x m = { m with data = Array.map (Cx.mul x) m.data }

let mul a b =
  if a.cols <> b.rows then invalid_arg "Cmatrix.mul: dimension mismatch";
  let c = create a.rows b.cols in
  let n = b.cols in
  for i = 0 to a.rows - 1 do
    for k = 0 to a.cols - 1 do
      let aik = a.data.((i * a.cols) + k) in
      if aik <> Cx.zero then
        for j = 0 to n - 1 do
          c.data.((i * n) + j) <-
            Cx.add c.data.((i * n) + j) (Cx.mul aik b.data.((k * n) + j))
        done
    done
  done;
  c

let mul_vec m x =
  if m.cols <> Cvec.dim x then invalid_arg "Cmatrix.mul_vec: dimension mismatch";
  Array.init m.rows (fun i ->
      let acc = ref Cx.zero in
      for j = 0 to m.cols - 1 do
        acc := Cx.add !acc (Cx.mul m.data.((i * m.cols) + j) x.(j))
      done;
      !acc)

let vec_mul x m =
  if m.rows <> Cvec.dim x then invalid_arg "Cmatrix.vec_mul: dimension mismatch";
  let y = Array.make m.cols Cx.zero in
  for i = 0 to m.rows - 1 do
    let xi = x.(i) in
    if xi <> Cx.zero then
      for j = 0 to m.cols - 1 do
        y.(j) <- Cx.add y.(j) (Cx.mul xi m.data.((i * m.cols) + j))
      done
  done;
  y

let row m i = Array.init m.cols (fun j -> get m i j)

let col m j = Array.init m.rows (fun i -> get m i j)

(* a plain loop, as [Matrix.max_abs]; a NaN modulus sticks *)
let max_abs m =
  let best = ref 0.0 in
  for k = 0 to Array.length m.data - 1 do
    let v = Cx.modulus m.data.(k) in
    if v > !best || Float.is_nan v then best := v
  done;
  !best

let norm_inf m =
  let best = ref 0.0 in
  for i = 0 to m.rows - 1 do
    let acc = ref 0.0 in
    for j = 0 to m.cols - 1 do
      acc := !acc +. Cx.modulus m.data.((i * m.cols) + j)
    done;
    if !acc > !best then best := !acc
  done;
  !best

let approx_equal ?(tol = 1e-9) a b =
  a.rows = b.rows && a.cols = b.cols && max_abs (sub a b) <= tol

let pp ppf m =
  Format.fprintf ppf "@[<v>";
  for i = 0 to m.rows - 1 do
    Format.fprintf ppf "[";
    for j = 0 to m.cols - 1 do
      if j > 0 then Format.fprintf ppf ", ";
      Cx.pp ppf (get m i j)
    done;
    Format.fprintf ppf "]";
    if i < m.rows - 1 then Format.fprintf ppf "@,"
  done;
  Format.fprintf ppf "@]"
