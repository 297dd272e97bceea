(* Index-based binary min-heap over preallocated parallel arrays.

   Payloads live in slot arrays (time/kind/server/epoch/seq, all
   unboxed); the heap itself is an int array of slot ids, so sift
   operations swap single ints and comparisons read raw floats. Slots
   freed by [drop] are recycled through an explicit free-list stack, so
   a running simulation reaches a steady state where [push] never
   allocates. Equal times break ties by insertion order (FIFO). *)

type t = {
  mutable time : float array; (* slot -> event time *)
  mutable kind : int array; (* slot -> event tag *)
  mutable server : int array; (* slot -> server payload (or -1) *)
  mutable epoch : int array; (* slot -> epoch payload *)
  mutable seq : int array; (* slot -> insertion sequence (tie-break) *)
  mutable heap : int array; (* heap position -> slot *)
  mutable size : int;
  mutable free : int array; (* stack of recycled slots *)
  mutable free_top : int;
  mutable next_slot : int; (* slots [0, next_slot) have been handed out *)
  mutable next_seq : int;
}

let create ?(capacity = 64) () =
  let capacity = max capacity 1 in
  {
    time = Array.make capacity 0.0;
    kind = Array.make capacity 0;
    server = Array.make capacity 0;
    epoch = Array.make capacity 0;
    seq = Array.make capacity 0;
    heap = Array.make capacity 0;
    size = 0;
    free = Array.make capacity 0;
    free_top = 0;
    next_slot = 0;
    next_seq = 0;
  }

let size h = h.size
let is_empty h = h.size = 0

let clear h =
  (* a cleared heap behaves exactly like a fresh one: tie-break state
     ([next_seq]) resets too *)
  h.size <- 0;
  h.free_top <- 0;
  h.next_slot <- 0;
  h.next_seq <- 0

let grow h =
  let cap = Array.length h.time in
  let bigger = 2 * cap in
  let grow_f a =
    let b = Array.make bigger 0.0 in
    Array.blit a 0 b 0 cap;
    b
  in
  let grow_i a =
    let b = Array.make bigger 0 in
    Array.blit a 0 b 0 cap;
    b
  in
  h.time <- grow_f h.time;
  h.kind <- grow_i h.kind;
  h.server <- grow_i h.server;
  h.epoch <- grow_i h.epoch;
  h.seq <- grow_i h.seq;
  h.heap <- grow_i h.heap;
  h.free <- grow_i h.free

let[@inline] lt h a b =
  (* callers pass live slot ids, always within the arrays *)
  let ta = Array.unsafe_get h.time a and tb = Array.unsafe_get h.time b in
  ta < tb || (ta = tb && Array.unsafe_get h.seq a < Array.unsafe_get h.seq b)

let[@inline] push h ~time ~kind ~server ~epoch =
  let slot =
    if h.free_top > 0 then begin
      h.free_top <- h.free_top - 1;
      h.free.(h.free_top)
    end
    else begin
      if h.next_slot = Array.length h.time then grow h;
      let s = h.next_slot in
      h.next_slot <- h.next_slot + 1;
      s
    end
  in
  Array.unsafe_set h.time slot time;
  Array.unsafe_set h.kind slot kind;
  Array.unsafe_set h.server slot server;
  Array.unsafe_set h.epoch slot epoch;
  Array.unsafe_set h.seq slot h.next_seq;
  h.next_seq <- h.next_seq + 1;
  (* sift up *)
  let i = ref h.size in
  h.size <- h.size + 1;
  Array.unsafe_set h.heap !i slot;
  let continue_sift = ref true in
  while !continue_sift && !i > 0 do
    let parent = (!i - 1) / 2 in
    let ps = Array.unsafe_get h.heap parent in
    if lt h slot ps then begin
      Array.unsafe_set h.heap !i ps;
      Array.unsafe_set h.heap parent slot;
      i := parent
    end
    else continue_sift := false
  done

(* Top accessors: callers must check [is_empty] first; reading the top
   of an empty heap is a programming error. *)
let[@inline] top_time h = Array.unsafe_get h.time (Array.unsafe_get h.heap 0)
let[@inline] top_kind h = Array.unsafe_get h.kind (Array.unsafe_get h.heap 0)

let[@inline] top_server h =
  Array.unsafe_get h.server (Array.unsafe_get h.heap 0)

let[@inline] top_epoch h = Array.unsafe_get h.epoch (Array.unsafe_get h.heap 0)

let[@inline] drop h =
  if h.size = 0 then invalid_arg "Index_heap.drop: empty heap";
  let top = Array.unsafe_get h.heap 0 in
  (* recycle the slot *)
  Array.unsafe_set h.free h.free_top top;
  h.free_top <- h.free_top + 1;
  h.size <- h.size - 1;
  if h.size > 0 then begin
    let moved = Array.unsafe_get h.heap h.size in
    Array.unsafe_set h.heap 0 moved;
    (* sift down *)
    let i = ref 0 in
    let continue_sift = ref true in
    while !continue_sift do
      let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
      let smallest = ref !i in
      if
        l < h.size
        && lt h (Array.unsafe_get h.heap l) (Array.unsafe_get h.heap !smallest)
      then smallest := l;
      if
        r < h.size
        && lt h (Array.unsafe_get h.heap r) (Array.unsafe_get h.heap !smallest)
      then smallest := r;
      if !smallest <> !i then begin
        let tmp = Array.unsafe_get h.heap !i in
        Array.unsafe_set h.heap !i (Array.unsafe_get h.heap !smallest);
        Array.unsafe_set h.heap !smallest tmp;
        i := !smallest
      end
      else continue_sift := false
    done
  end
