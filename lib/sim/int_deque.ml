(* Monomorphic int deque over a power-of-two ring buffer for the
   simulation hot path: pushing never conses, popping never reverses,
   and the buffer is reused across the whole run. Values must be >= 0
   (slot/server indices); [pop_front] returns [-1] for empty instead of
   an [option]. *)

type t = { mutable buf : int array; mutable head : int; mutable len : int }

let create ?(capacity = 16) () =
  let cap = max 2 capacity in
  (* round up to a power of two so wrap-around is a mask *)
  let cap =
    let c = ref 2 in
    while !c < cap do
      c := !c * 2
    done;
    !c
  in
  { buf = Array.make cap 0; head = 0; len = 0 }

let length d = d.len
let is_empty d = d.len = 0

let clear d =
  d.head <- 0;
  d.len <- 0

let grow d =
  let cap = Array.length d.buf in
  let bigger = Array.make (2 * cap) 0 in
  for i = 0 to d.len - 1 do
    bigger.(i) <- d.buf.((d.head + i) land (cap - 1))
  done;
  d.buf <- bigger;
  d.head <- 0

let push_back d x =
  if d.len = Array.length d.buf then grow d;
  let mask = Array.length d.buf - 1 in
  d.buf.((d.head + d.len) land mask) <- x;
  d.len <- d.len + 1

let push_front d x =
  if d.len = Array.length d.buf then grow d;
  let mask = Array.length d.buf - 1 in
  d.head <- (d.head - 1) land mask;
  d.buf.(d.head) <- x;
  d.len <- d.len + 1

let pop_front d =
  if d.len = 0 then -1
  else begin
    let x = d.buf.(d.head) in
    d.head <- (d.head + 1) land (Array.length d.buf - 1);
    d.len <- d.len - 1;
    x
  end
