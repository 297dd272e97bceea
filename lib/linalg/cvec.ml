type t = Cx.t array

let init = Array.init

let of_real v = Array.map Cx.of_float v

let of_interleaved y =
  if Array.length y land 1 = 1 then
    invalid_arg "Cvec.of_interleaved: odd length";
  Array.init (Array.length y / 2) (fun i -> Cx.make y.(2 * i) y.((2 * i) + 1))

let scale a v = Array.map (Cx.mul a) v

let sum v = Array.fold_left Cx.add Cx.zero v

let norm2 v =
  let acc = ref 0.0 in
  for i = 0 to Array.length v - 1 do
    acc := !acc +. Cx.modulus2 v.(i)
  done;
  sqrt !acc

let norm_inf v =
  let acc = ref 0.0 in
  for i = 0 to Array.length v - 1 do
    let m = Cx.modulus v.(i) in
    if m > !acc then acc := m
  done;
  !acc

let max_abs_index v =
  if Array.length v = 0 then invalid_arg "Cvec.max_abs_index: empty vector";
  let best = ref 0 in
  for i = 1 to Array.length v - 1 do
    if Cx.modulus2 v.(i) > Cx.modulus2 v.(!best) then best := i
  done;
  !best

let normalize v =
  let n = norm2 v in
  if n = 0.0 then invalid_arg "Cvec.normalize: zero vector";
  let k = max_abs_index v in
  (* rotate so the dominant component becomes real positive *)
  let phase = Cx.scale (1.0 /. Cx.modulus v.(k)) (Cx.conj v.(k)) in
  scale (Cx.scale (1.0 /. n) phase) v

let approx_equal ?(tol = 1e-9) u v =
  Array.length u = Array.length v
  && norm_inf (Array.map2 Cx.sub u v) <= tol
