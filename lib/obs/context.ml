(* Trace-correlation contexts: a 128-bit trace id, the 64-bit id of the
   current span, and the sampling decision, carried ambiently per domain
   and explicitly across domain (and process) boundaries.

   The id generator is a private splitmix64 stream (not Urs_prob.Rng —
   that would invert the library layering) behind a mutex: ids are drawn
   once per span or request, never in a hot loop. Seeding it makes every
   id deterministic, which is what the test goldens rely on; unseeded,
   the first draw mixes wall clock and pid so concurrent processes get
   distinct traces. *)

type t = {
  trace_hi : int64;
  trace_lo : int64;
  span_id : int64;
  sampled : bool;
}

(* ---- id generation ---- *)

let lock = Mutex.create ()

let state : int64 option ref = ref None

let set_seed seed =
  Mutex.lock lock;
  state := Some (Int64.of_int seed);
  Mutex.unlock lock

let clear_seed () =
  Mutex.lock lock;
  state := None;
  Mutex.unlock lock

let mix z =
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30))
      0xBF58476D1CE4E5B9L
  in
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27))
      0x94D049BB133111EBL
  in
  Int64.logxor z (Int64.shift_right_logical z 31)

let next64 () =
  Mutex.lock lock;
  let s0 =
    match !state with
    | Some s -> s
    | None ->
        (* first use without an explicit seed: wall clock + pid entropy *)
        Int64.logxor
          (Int64.of_float (Unix.gettimeofday () *. 1e9))
          (Int64.of_int (Unix.getpid () * 0x9E37))
  in
  let s = Int64.add s0 0x9E3779B97F4A7C15L in
  state := Some s;
  Mutex.unlock lock;
  mix s

let rec nonzero64 () =
  let v = next64 () in
  if v = 0L then nonzero64 () else v

let new_trace ?(sampled = true) () =
  { trace_hi = nonzero64 (); trace_lo = next64 ();
    span_id = nonzero64 (); sampled }

let child c = { c with span_id = nonzero64 () }

(* ---- rendering ---- *)

let id_hex id = Printf.sprintf "%016Lx" id

let trace_id_hex c = Printf.sprintf "%016Lx%016Lx" c.trace_hi c.trace_lo

let span_id_hex c = id_hex c.span_id

(* ---- W3C traceparent ---- *)

let to_traceparent c =
  Printf.sprintf "00-%s-%s-%s" (trace_id_hex c) (span_id_hex c)
    (if c.sampled then "01" else "00")

(* the header grammar demands lowercase hex; reject uppercase rather
   than normalize, per the spec's "vendors MUST reject" language *)
let is_lower_hex s =
  String.for_all (function '0' .. '9' | 'a' .. 'f' -> true | _ -> false) s

let hex64 s =
  (* 16 lowercase hex chars -> int64, full unsigned range *)
  let v = ref 0L in
  String.iter
    (fun c ->
      let d =
        match c with
        | '0' .. '9' -> Char.code c - Char.code '0'
        | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
        | _ -> assert false
      in
      v := Int64.logor (Int64.shift_left !v 4) (Int64.of_int d))
    s;
  !v

let of_traceparent s =
  let s = String.trim s in
  match String.split_on_char '-' s with
  | version :: trace :: span :: flags :: rest ->
      if String.length version <> 2 || not (is_lower_hex version) then
        Error "traceparent: version must be two lowercase hex digits"
      else if version = "ff" then Error "traceparent: version ff is invalid"
      else if version = "00" && rest <> [] then
        Error "traceparent: version 00 allows exactly four fields"
      else if String.length trace <> 32 || not (is_lower_hex trace) then
        Error "traceparent: trace-id must be 32 lowercase hex digits"
      else if String.length span <> 16 || not (is_lower_hex span) then
        Error "traceparent: parent-id must be 16 lowercase hex digits"
      else if String.length flags <> 2 || not (is_lower_hex flags) then
        Error "traceparent: flags must be two lowercase hex digits"
      else if String.for_all (( = ) '0') trace then
        Error "traceparent: all-zero trace-id is invalid"
      else if String.for_all (( = ) '0') span then
        Error "traceparent: all-zero parent-id is invalid"
      else
        let trace_hi = hex64 (String.sub trace 0 16) in
        let trace_lo = hex64 (String.sub trace 16 16) in
        let span_id = hex64 span in
        let sampled =
          Int64.logand (hex64 flags) 1L = 1L
        in
        Ok { trace_hi; trace_lo; span_id; sampled }
  | _ -> Error "traceparent: expected version-traceid-parentid-flags"

(* ---- ambient current context ----

   Domain-local, like the span stacks in [Span]: a pool task restored
   onto a worker domain must not see (or clobber) the submitter
   domain's context. Note the HTTP server thread shares domain 0 with
   the main thread, so request handling passes its context explicitly
   (Ledger.record ?context) instead of mutating the ambient cell. *)

let ambient : t option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let current () = !(Domain.DLS.get ambient)

let capture = current

let with_restored saved f =
  let cell = Domain.DLS.get ambient in
  let prev = !cell in
  cell := saved;
  Fun.protect ~finally:(fun () -> (Domain.DLS.get ambient) := prev) f

let restore = with_restored

let with_current c f = with_restored (Some c) f
