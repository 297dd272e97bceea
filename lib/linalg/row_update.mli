(** The row-update kernel behind every row AXPY of {!Lu} and of
    {!Hessenberg.reduce}. Private to the library: its loops read and
    write without bounds checks, so each public entry that reaches it
    checks its dimensions once first. *)

val sub : float array -> int -> float -> float array -> int -> int -> unit
(** [sub x xo a y yo len] sets [x.(xo + c) <- x.(xo + c) -. (a *. y.(yo + c))]
    for [c = 0 .. len − 1], in that order, four lanes a step: the plain
    loop's operations and results bit for bit, also when [x] and [y] are
    one array ([len <= 0] does nothing). Unchecked: the caller
    guarantees [0 <= xo], [xo + len <= Array.length x] and the same for
    [y]. Marked [[@inline]], so that in a build without [-opaque] its
    callers in other modules get it inlined with [a] unboxed. *)

val check_storage : string -> float array -> rows:int -> cols:int -> unit
(** [check_storage name data ~rows ~cols] raises [Invalid_argument]
    (prefixed by [name]) unless [data] holds exactly [rows · cols]
    entries: the storage of a [Matrix.t], whose fields are public, is
    checked this way before an unchecked loop runs over it. *)
