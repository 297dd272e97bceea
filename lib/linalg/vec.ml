type t = float array

let create n = Array.make n 0.0

let init = Array.init

let dim = Array.length

let copy = Array.copy

let of_list = Array.of_list

let to_list = Array.to_list

let fill v x = Array.fill v 0 (Array.length v) x

let check_dims u v =
  if Array.length u <> Array.length v then
    invalid_arg "Vec: dimension mismatch"

let add u v =
  check_dims u v;
  Array.init (Array.length u) (fun i -> u.(i) +. v.(i))

let sub u v =
  check_dims u v;
  Array.init (Array.length u) (fun i -> u.(i) -. v.(i))

let scale a v = Array.map (fun x -> a *. x) v

let axpy a x y =
  check_dims x y;
  for i = 0 to Array.length x - 1 do
    y.(i) <- (a *. x.(i)) +. y.(i)
  done

let dot u v =
  check_dims u v;
  let acc = ref 0.0 in
  for i = 0 to Array.length u - 1 do
    acc := !acc +. (u.(i) *. v.(i))
  done;
  !acc

let sum v =
  let acc = ref 0.0 in
  for i = 0 to Array.length v - 1 do
    acc := !acc +. v.(i)
  done;
  !acc

let norm2 v = sqrt (dot v v)

let norm_inf v =
  let acc = ref 0.0 in
  for i = 0 to Array.length v - 1 do
    let a = abs_float v.(i) in
    if a > !acc then acc := a
  done;
  !acc

let normalize v =
  let n = norm2 v in
  if n = 0.0 then invalid_arg "Vec.normalize: zero vector";
  scale (1.0 /. n) v

let map = Array.map

let map2 f u v =
  check_dims u v;
  Array.init (Array.length u) (fun i -> f u.(i) v.(i))

let max_abs_index v =
  if Array.length v = 0 then invalid_arg "Vec.max_abs_index: empty vector";
  let best = ref 0 in
  for i = 1 to Array.length v - 1 do
    if abs_float v.(i) > abs_float v.(!best) then best := i
  done;
  !best

let approx_equal ?(tol = 1e-9) u v =
  Array.length u = Array.length v && norm_inf (sub u v) <= tol

let pp ppf v =
  Format.fprintf ppf "[@[%a@]]"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ";@ ")
       (fun ppf x -> Format.fprintf ppf "%g" x))
    (to_list v)
