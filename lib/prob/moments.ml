let factorial k =
  if k < 0 then invalid_arg "Moments.factorial: negative";
  let acc = ref 1.0 in
  for i = 2 to k do
    acc := !acc *. float_of_int i
  done;
  !acc

let reduced k m = m /. factorial k
