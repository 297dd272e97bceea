(* Append-only JSONL run journal. Instrumented call sites (Solver,
   Spectral, Sweep, Replicate, bench sections) call [record]; when the
   ledger is inactive that is a cheap no-op, so the hooks can stay in
   the hot paths unconditionally. *)

type record = {
  seq : int;
  time : float;
  kind : string;
  strategy : string option;
  params : (string * Json.t) list;
  wall_seconds : float;
  outcome : string;
  summary : (string * Json.t) list;
  gauges : (string * float) list;
  trace_id : string option;
  span_id : string option;
}

(* v2 added trace_id/span_id stamps; v1 lines (no stamps) still parse *)
let schema = "urs-ledger/2"

let accepted_schemas = [ "urs-ledger/1"; "urs-ledger/2" ]

(* ---- sinks ---- *)

let store : Ledger_store.t option ref = ref None

let memory_enabled = ref false

let max_recent = 512

(* One lock for every piece of ledger state: the sequence counter, the
   in-memory ring (read by the HTTP server thread, written by solver
   threads and pool domains) and the file channel (so concurrent
   appends from pool domains cannot interleave JSONL lines). *)
let lock = Mutex.create ()

let recent_q : record Queue.t = Queue.create ()

let with_lock f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

let seq_counter = ref 0

let active () = !store <> None || !memory_enabled

let close_unlocked () =
  (match !store with
  | Some st -> ( try Ledger_store.close st with Sys_error _ -> ())
  | None -> ());
  store := None

let set_memory b =
  with_lock (fun () ->
      memory_enabled := b;
      if not b then Queue.clear recent_q)

let close () = with_lock close_unlocked

let open_file ?(truncate = false) ?max_bytes ?keep ?flush_every path =
  let st = Ledger_store.open_ ~truncate ?max_bytes ?keep ?flush_every path in
  with_lock (fun () ->
      close_unlocked ();
      store := Some st)

let recent ?(limit = max_recent) () =
  (* snapshot to an immutable list inside the critical section; the
     lazy Queue.to_seq traversal must not outlive the lock *)
  let all = with_lock (fun () -> List.of_seq (Queue.to_seq recent_q)) in
  let n = List.length all in
  if n <= limit then all else List.filteri (fun i _ -> i >= n - limit) all

let reset () =
  with_lock (fun () ->
      close_unlocked ();
      memory_enabled := false;
      Queue.clear recent_q;
      seq_counter := 0)

(* ---- serialization ---- *)

let kv_obj kvs = Json.Obj kvs

let to_json r =
  let opt_str key = function
    | None -> []
    | Some s -> [ (key, Json.String s) ]
  in
  Json.Obj
    ([
       ("schema", Json.String schema);
       ("seq", Json.Int r.seq);
       ("time", Json.Float r.time);
       ("kind", Json.String r.kind);
     ]
    @ opt_str "strategy" r.strategy
    @ opt_str "trace_id" r.trace_id
    @ opt_str "span_id" r.span_id
    @ [
        ("params", kv_obj r.params);
        ("wall_seconds", Json.Float r.wall_seconds);
        ("outcome", Json.String r.outcome);
        ("summary", kv_obj r.summary);
        ( "gauges",
          Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) r.gauges) );
      ])

let of_json j =
  let str key =
    match Json.member key j with
    | Some (Json.String s) -> Ok s
    | _ -> Error (Printf.sprintf "ledger record: missing string field %S" key)
  in
  let num key =
    match Option.bind (Json.member key j) Json.to_float_opt with
    | Some f -> Ok f
    | None -> Error (Printf.sprintf "ledger record: missing number field %S" key)
  in
  let obj key =
    match Json.member key j with
    | Some (Json.Obj kvs) -> Ok kvs
    | None -> Ok []
    | Some _ -> Error (Printf.sprintf "ledger record: field %S not an object" key)
  in
  let ( let* ) = Result.bind in
  let* () =
    (* lenient on absent schema (hand-written fixtures), strict on an
       unknown one: a future-versioned journal should fail loudly *)
    match Json.member "schema" j with
    | None -> Ok ()
    | Some (Json.String s) when List.mem s accepted_schemas -> Ok ()
    | Some (Json.String s) ->
        Error (Printf.sprintf "ledger record: unsupported schema %S" s)
    | Some _ -> Error "ledger record: field \"schema\" not a string"
  in
  let* kind = str "kind" in
  let* time = num "time" in
  let* wall_seconds = num "wall_seconds" in
  let* outcome = str "outcome" in
  let* params = obj "params" in
  let* summary = obj "summary" in
  let* gauge_kvs = obj "gauges" in
  let seq =
    match Option.bind (Json.member "seq" j) Json.to_float_opt with
    | Some f -> int_of_float f
    | None -> 0
  in
  let strategy =
    Option.bind (Json.member "strategy" j) Json.to_string_opt
  in
  let trace_id = Option.bind (Json.member "trace_id" j) Json.to_string_opt in
  let span_id = Option.bind (Json.member "span_id" j) Json.to_string_opt in
  let gauges =
    List.filter_map
      (fun (k, v) -> Option.map (fun f -> (k, f)) (Json.to_float_opt v))
      gauge_kvs
  in
  Ok
    {
      seq;
      time;
      kind;
      strategy;
      params;
      wall_seconds;
      outcome;
      summary;
      gauges;
      trace_id;
      span_id;
    }

(* ---- appending ---- *)

(* stamp seq, push to the ring and write the line inside one critical
   section: pool domains append concurrently, and each JSONL line must
   stay contiguous with a unique sequence number *)
let record ?strategy ?(params = []) ?(outcome = "ok") ?(summary = [])
    ?(gauges = []) ?context ~kind ~wall_seconds () =
  let time = Span.now () in
  (* the ambient read happens on the caller's domain, outside the lock;
     HTTP handlers pass [?context] explicitly instead (their thread
     shares domain 0's ambient cell with the main thread) *)
  let ctx = match context with Some _ as c -> c | None -> Context.current () in
  let trace_id = Option.map Context.trace_id_hex ctx in
  let span_id = Option.map Context.span_id_hex ctx in
  with_lock (fun () ->
      if !store <> None || !memory_enabled then begin
        incr seq_counter;
        let r =
          {
            seq = !seq_counter;
            time;
            kind;
            strategy;
            params;
            wall_seconds;
            outcome;
            summary;
            gauges;
            trace_id;
            span_id;
          }
        in
        if !memory_enabled then begin
          Queue.push r recent_q;
          if Queue.length recent_q > max_recent then
            ignore (Queue.pop recent_q)
        end;
        match !store with
        | None -> ()
        | Some st -> (
            try Ledger_store.write st (Json.to_string (to_json r))
            with Sys_error _ -> ())
      end)

(* ---- tail cursor over the memory ring ---- *)

let since ?kind ?(limit = max_recent) ~seq () =
  with_lock (fun () ->
      let latest = !seq_counter in
      let matched =
        Queue.fold
          (fun acc r ->
            if
              r.seq > seq
              && (match kind with None -> true | Some k -> r.kind = k)
            then r :: acc
            else acc)
          [] recent_q
      in
      let matched = List.rev matched in
      let rec take n = function
        | x :: tl when n > 0 -> x :: take (n - 1) tl
        | _ -> []
      in
      let page = take limit matched in
      (* a truncated page must return the last seq actually delivered,
         not the global counter, or the client's next poll would skip
         everything between the page and the counter *)
      let cursor =
        if List.length matched > List.length page then
          match List.rev page with r :: _ -> r.seq | [] -> latest
        else latest
      in
      (page, cursor))

let wait_since ?kind ?limit ~seq ~timeout_s () =
  (* poll the ring rather than block on a condition variable: the
     stdlib Condition has no timed wait, and 50 ms of tail latency is
     invisible to an operator. The deadline uses the wall clock, not
     Span.now — a frozen test clock must not turn this into a spin. *)
  let deadline = Unix.gettimeofday () +. timeout_s in
  let rec go () =
    let rs, latest = since ?kind ?limit ~seq () in
    if rs <> [] || timeout_s <= 0.0 || Unix.gettimeofday () >= deadline then
      (rs, latest)
    else begin
      Thread.delay 0.05;
      go ()
    end
  in
  go ()

(* ---- streaming reads ---- *)

type fold_stats = { malformed : int }

let parse_line line = Result.bind (Json.of_string line) of_json

let fold_file path ~init ~f =
  Ledger_store.fold_lines path ~init:(init, 0) ~f:(fun (acc, bad) line ->
      if line = "" then (acc, bad)
      else
        match parse_line line with
        | Ok r -> (f acc r, bad)
        | Error _ ->
            (* malformed mid-file line or the torn tail of a crashed
               writer: count it and keep going *)
            (acc, bad + 1))
  |> Result.map (fun (acc, malformed) -> (acc, { malformed }))

let fold_path path ~init ~f =
  match Ledger_store.segments path with
  | [] -> Error (path ^ ": no such file")
  | segs ->
      Ok
        (List.fold_left
           (fun (acc, stats) seg ->
             match fold_file seg ~init:acc ~f with
             | Error _ ->
                 (* a segment deleted by a racing rotation between the
                    enumeration and the open: nothing left to read *)
                 (acc, stats)
             | Ok (acc, s) ->
                 (acc, { malformed = stats.malformed + s.malformed }))
           (init, { malformed = 0 })
           segs)
