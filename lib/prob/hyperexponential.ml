type t = { weights : float array; rates : float array }

let create ~weights ~rates =
  let n = Array.length weights in
  if n = 0 || Array.length rates <> n then
    invalid_arg "Hyperexponential.create: weights/rates length mismatch";
  Array.iter
    (fun w ->
      if w < 0.0 || not (Float.is_finite w) then
        invalid_arg "Hyperexponential.create: weights must be nonnegative")
    weights;
  Array.iter
    (fun r ->
      if r <= 0.0 || not (Float.is_finite r) then
        invalid_arg "Hyperexponential.create: rates must be positive")
    rates;
  let total = Array.fold_left ( +. ) 0.0 weights in
  if abs_float (total -. 1.0) > 1e-9 then
    invalid_arg "Hyperexponential.create: weights must sum to 1";
  let weights = Array.map (fun w -> w /. total) weights in
  { weights = Array.copy weights; rates = Array.copy rates }

let of_pairs pairs =
  let weights = Array.of_list (List.map fst pairs) in
  let rates = Array.of_list (List.map snd pairs) in
  create ~weights ~rates

let phases d = Array.length d.weights

let weights d = Array.copy d.weights

let rates d = Array.copy d.rates

let mean d =
  let acc = ref 0.0 in
  for j = 0 to phases d - 1 do
    acc := !acc +. (d.weights.(j) /. d.rates.(j))
  done;
  !acc

let moment d k =
  if k < 1 then invalid_arg "Hyperexponential.moment: k must be >= 1";
  let fact = ref 1.0 in
  for i = 1 to k do
    fact := !fact *. float_of_int i
  done;
  let acc = ref 0.0 in
  for j = 0 to phases d - 1 do
    acc := !acc +. (!fact *. d.weights.(j) /. (d.rates.(j) ** float_of_int k))
  done;
  !acc

let variance d =
  let m1 = mean d in
  moment d 2 -. (m1 *. m1)

let scv d =
  let m1 = mean d in
  (moment d 2 /. (m1 *. m1)) -. 1.0

let pdf d x =
  if x < 0.0 then 0.0
  else begin
    let acc = ref 0.0 in
    for j = 0 to phases d - 1 do
      acc := !acc +. (d.weights.(j) *. d.rates.(j) *. exp (-.d.rates.(j) *. x))
    done;
    !acc
  end

let cdf d x =
  if x < 0.0 then 0.0
  else begin
    let acc = ref 0.0 in
    for j = 0 to phases d - 1 do
      acc := !acc +. (d.weights.(j) *. exp (-.d.rates.(j) *. x))
    done;
    1.0 -. !acc
  end

let quantile d p =
  if p <= 0.0 || p >= 1.0 then
    invalid_arg "Hyperexponential.quantile: p in (0,1)";
  (* the CDF is strictly increasing; bracket then bisect *)
  let hi = ref (mean d) in
  while cdf d !hi < p do
    hi := !hi *. 2.0
  done;
  let lo = ref 0.0 and hi = ref !hi in
  for _ = 1 to 200 do
    let m = 0.5 *. (!lo +. !hi) in
    if cdf d m < p then lo := m else hi := m
  done;
  0.5 *. (!lo +. !hi)

let sample d g =
  let j = Rng.choose g d.weights in
  Rng.exponential g d.rates.(j)

let pp ppf d =
  Format.fprintf ppf "H%d(" (phases d);
  for j = 0 to phases d - 1 do
    if j > 0 then Format.fprintf ppf "; ";
    Format.fprintf ppf "w=%.4g,rate=%.4g" d.weights.(j) d.rates.(j)
  done;
  Format.fprintf ppf ")"
