(* Four lanes a step, then the remainder one at a time. Each lane reads
   and writes before the next one starts, so even overlapping ranges see
   the plain loop's sequence of operations. The float arrays are named
   as such on the parameters: Array.unsafe_get is then a direct float
   load; through a polymorphic alias it would box every element. *)
let[@inline] sub (x : float array) xo a (y : float array) yo len =
  let i = ref xo and j = ref yo in
  let last = xo + len in
  while !i + 3 < last do
    let i0 = !i and j0 = !j in
    Array.unsafe_set x i0
      (Array.unsafe_get x i0 -. (a *. Array.unsafe_get y j0));
    Array.unsafe_set x (i0 + 1)
      (Array.unsafe_get x (i0 + 1) -. (a *. Array.unsafe_get y (j0 + 1)));
    Array.unsafe_set x (i0 + 2)
      (Array.unsafe_get x (i0 + 2) -. (a *. Array.unsafe_get y (j0 + 2)));
    Array.unsafe_set x (i0 + 3)
      (Array.unsafe_get x (i0 + 3) -. (a *. Array.unsafe_get y (j0 + 3)));
    i := i0 + 4;
    j := j0 + 4
  done;
  while !i < last do
    let i0 = !i in
    Array.unsafe_set x i0
      (Array.unsafe_get x i0 -. (a *. Array.unsafe_get y !j));
    i := i0 + 1;
    incr j
  done

let check_storage name (data : float array) ~rows ~cols =
  if Array.length data <> rows * cols then
    invalid_arg (name ^ ": data length is not rows * cols")
