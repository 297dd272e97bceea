(* Runtime probes: GC/allocation deltas around arbitrary code regions,
   plus (on runtimes with eventring support) a Runtime_events consumer
   thread that turns GC phase begin/end pairs and domain lifecycle
   events into metrics, timeline points and Perfetto trace events.

   Two independent switches:
   - [set_profiling] (shared atomic in [Span]) arms the cheap
     quick-stat deltas in spans and pool tasks;
   - [start_events]/[stop_events] run the (heavier) event consumer.
   Both are off by default and the module is inert until enabled. *)

type sample = {
  minor_words : float;
  promoted_words : float;
  major_words : float;
  minor_collections : int;
  major_collections : int;
  compactions : int;
  heap_words : int;
  top_heap_words : int;
}

let sample () =
  (* [quick_stat] is cheap and does not walk the heap; heap_words and
     top_heap_words are still maintained. Its minor_words move only at
     minor collections in OCaml 5.1, so they come from [Gc.minor_words]
     (exact and domain-local), as in [Span.gc_counters]. *)
  let q = Gc.quick_stat () in
  {
    minor_words = Gc.minor_words ();
    promoted_words = q.Gc.promoted_words;
    major_words = q.Gc.major_words;
    minor_collections = q.Gc.minor_collections;
    major_collections = q.Gc.major_collections;
    compactions = q.Gc.compactions;
    heap_words = q.Gc.heap_words;
    top_heap_words = q.Gc.top_heap_words;
  }

type delta = {
  d_minor_words : float;
  d_promoted_words : float;
  d_major_words : float;
  d_minor_collections : int;
  d_major_collections : int;
  d_compactions : int;
  heap_words_after : int;
  top_heap_words_after : int;
}

let delta ~before ~after =
  {
    d_minor_words = after.minor_words -. before.minor_words;
    d_promoted_words = after.promoted_words -. before.promoted_words;
    d_major_words = after.major_words -. before.major_words;
    d_minor_collections = after.minor_collections - before.minor_collections;
    d_major_collections = after.major_collections - before.major_collections;
    d_compactions = after.compactions - before.compactions;
    heap_words_after = after.heap_words;
    top_heap_words_after = after.top_heap_words;
  }

let measure f =
  let s0 = sample () in
  let r = f () in
  (r, delta ~before:s0 ~after:(sample ()))

(* ------------------------------------------------------------------ *)
(* Profiling switch (the atomic itself lives in Span, the lowest layer
   that needs it). *)

let set_profiling = Span.set_gc_profiling

let profiling_enabled = Span.gc_profiling_enabled

(* ------------------------------------------------------------------ *)
(* Runtime_events consumer. *)

type slice = {
  phase : string;
  domain : int;
  start_s : float;  (* in the Span clock's timebase, see calibration *)
  duration_s : float;
}

type counter_sample = {
  counter : string;
  c_domain : int;
  t_s : float;
  value : float;
}

let max_slices = 8192

let max_counter_samples = 8192

type events_state = {
  mutable running : bool;
  mutable stop_requested : bool;
  mutable thread : Thread.t option;
  mutable cursor : Runtime_events.cursor option;
      (* created once per process and never freed: the ring file is
         unlinked right after the cursor maps it, so a second
         [create_cursor] would find nothing to open *)
  mutable slices : slice list; (* reverse order, bounded *)
  mutable slice_count : int;
  mutable dropped_slices : int;
  mutable counters : counter_sample list; (* reverse order, bounded *)
  mutable counter_count : int;
  mutable dropped_counters : int;
  mutable offset : float option;
      (* Span.now () -. event-time at first processed event: converts
         the runtime's monotonic nanosecond clock into the Span
         timebase so GC slices line up with spans in one trace. The
         calibration is late by at most one poll interval. *)
  begins : (int * string, int64) Hashtbl.t;
}

let ev =
  {
    running = false;
    stop_requested = false;
    thread = None;
    cursor = None;
    slices = [];
    slice_count = 0;
    dropped_slices = 0;
    counters = [];
    counter_count = 0;
    dropped_counters = 0;
    offset = None;
    begins = Hashtbl.create 64;
  }

let ev_lock = Mutex.create ()

let locked f =
  Mutex.lock ev_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock ev_lock) f

let ns_to_s ts = Int64.to_float (Runtime_events.Timestamp.to_int64 ts) *. 1e-9

let calibrate ts =
  match ev.offset with
  | Some o -> o
  | None ->
      let o = Span.now () -. ns_to_s ts in
      ev.offset <- Some o;
      o

(* Phases worth keeping as slices: the top-level collector phases and
   the explicit-GC entry points. The many mark/sweep sub-phases still
   count in the events counter but would drown the trace. *)
let slice_phase (p : Runtime_events.runtime_phase) =
  match p with
  | EV_MINOR | EV_MAJOR | EV_MAJOR_SLICE | EV_MAJOR_GC_STW
  | EV_EXPLICIT_GC_MINOR | EV_EXPLICIT_GC_MAJOR | EV_EXPLICIT_GC_FULL_MAJOR
  | EV_EXPLICIT_GC_COMPACT ->
      true
  | _ -> false

let counter_of_interest (c : Runtime_events.runtime_counter) =
  match c with
  | EV_C_MINOR_ALLOCATED | EV_C_MINOR_PROMOTED
  | EV_C_MAJOR_HEAP_POOL_LIVE_WORDS | EV_C_MAJOR_HEAP_POOL_WORDS ->
      true
  | _ -> false

let events_total phase =
  Metrics.counter
    ~labels:[ ("phase", phase) ]
    ~help:"GC phase completions seen by the Runtime_events consumer"
    "urs_runtime_gc_events_total"

let pause_hist phase =
  Metrics.histogram
    ~labels:[ ("phase", phase) ]
    ~help:"GC phase durations seen by the Runtime_events consumer"
    "urs_runtime_gc_pause_seconds"

let domain_events_total event =
  Metrics.counter
    ~labels:[ ("event", event) ]
    ~help:"domain lifecycle events seen by the Runtime_events consumer"
    "urs_runtime_domain_events_total"

let major_timeline dom =
  Timeline.series
    ~labels:[ ("domain", string_of_int dom) ]
    "urs_runtime_major_gc"

let on_begin ring ts phase =
  locked (fun () ->
      let name = Runtime_events.runtime_phase_name phase in
      Hashtbl.replace ev.begins (ring, name)
        (Runtime_events.Timestamp.to_int64 ts);
      if phase = EV_MAJOR then begin
        let off = calibrate ts in
        Timeline.record (major_timeline ring) ~t:(off +. ns_to_s ts) 1.0
      end)

let on_end ring ts phase =
  locked (fun () ->
      let name = Runtime_events.runtime_phase_name phase in
      let off = calibrate ts in
      let t1 = ns_to_s ts in
      (match Hashtbl.find_opt ev.begins (ring, name) with
      | None -> ()
      | Some t0_ns ->
          Hashtbl.remove ev.begins (ring, name);
          let t0 = Int64.to_float t0_ns *. 1e-9 in
          let dur = t1 -. t0 in
          if dur >= 0.0 then begin
            Metrics.inc (events_total name);
            Metrics.observe (pause_hist name) dur;
            if slice_phase phase then
              if ev.slice_count >= max_slices then
                ev.dropped_slices <- ev.dropped_slices + 1
              else begin
                ev.slices <-
                  { phase = name; domain = ring; start_s = off +. t0;
                    duration_s = dur }
                  :: ev.slices;
                ev.slice_count <- ev.slice_count + 1
              end
          end);
      if phase = EV_MAJOR then
        Timeline.record (major_timeline ring) ~t:(off +. t1) 0.0)

let on_counter ring ts counter value =
  if counter_of_interest counter then
    locked (fun () ->
        let off = calibrate ts in
        if ev.counter_count >= max_counter_samples then
          ev.dropped_counters <- ev.dropped_counters + 1
        else begin
          ev.counters <-
            {
              counter = Runtime_events.runtime_counter_name counter;
              c_domain = ring;
              t_s = off +. ns_to_s ts;
              value = float_of_int value;
            }
            :: ev.counters;
          ev.counter_count <- ev.counter_count + 1
        end)

let on_lifecycle ring ts lifecycle _data =
  ignore ring;
  locked (fun () ->
      ignore (calibrate ts);
      match (lifecycle : Runtime_events.lifecycle) with
      | EV_DOMAIN_SPAWN -> Metrics.inc (domain_events_total "spawn")
      | EV_DOMAIN_TERMINATE -> Metrics.inc (domain_events_total "terminate")
      | _ -> ())

let callbacks =
  lazy
    (Runtime_events.Callbacks.create ~runtime_begin:on_begin
       ~runtime_end:on_end ~runtime_counter:on_counter
       ~lifecycle:on_lifecycle ())

(* the cursor is process-lifetime state (see [events_state.cursor]):
   the consumer must not free it on the way out *)
let consumer cursor =
  let cbs = Lazy.force callbacks in
  let rec loop () =
    let stop = locked (fun () -> ev.stop_requested) in
    ignore (Runtime_events.read_poll cursor cbs None);
    if not stop then begin
      Thread.delay 0.01;
      loop ()
    end
  in
  try loop () with _ -> ()

let events_disabled () =
  match Sys.getenv_opt "URS_NO_RUNTIME_EVENTS" with
  | Some ("" | "0") | None -> false
  | Some _ -> true

let events_running () = locked (fun () -> ev.running)

(* Where the runtime put the <pid>.events ring-buffer file. The
   directory comes from OCAML_RUNTIME_EVENTS_DIR as it was when the
   process started (the runtime snapshots its parameters at startup, so
   setting the variable from inside the process is a no-op), defaulting
   to the working directory. *)
let ring_path () =
  let dir =
    match Sys.getenv_opt "OCAML_RUNTIME_EVENTS_DIR" with
    | Some d when d <> "" -> d
    | _ -> Sys.getcwd ()
  in
  Filename.concat dir (string_of_int (Unix.getpid ()) ^ ".events")

let preserve_ring () =
  (* same convention as the runtime's own exit-time cleanup *)
  match Sys.getenv_opt "OCAML_RUNTIME_EVENTS_PRESERVE" with
  | Some s when s <> "" -> true
  | _ -> false

let start_events () =
  if events_disabled () then false
  else if events_running () then false
  else
    try
      (match locked (fun () -> ev.cursor) with
      | Some _ ->
          (* restart: the ring and cursor still exist, and [start] on an
             already-started runtime would leave the pause flag set *)
          Runtime_events.resume ()
      | None ->
          Runtime_events.start ();
          let cursor = Runtime_events.create_cursor None in
          locked (fun () -> ev.cursor <- Some cursor);
          (* Unlink the ring file now that both the runtime and the
             cursor have it mapped: a SIGTERM'd or crashed process (a
             killed [urs serve], say) would otherwise leave
             <pid>.events littering the working directory, since the
             runtime only removes it on orderly exit. The mappings stay
             valid, and the runtime's own unlink quietly finds nothing. *)
          if not (preserve_ring ()) then (
            try Sys.remove (ring_path ()) with Sys_error _ -> ()));
      let cursor =
        match locked (fun () -> ev.cursor) with
        | Some c -> c
        | None -> assert false
      in
      locked (fun () ->
          ev.stop_requested <- false;
          ev.running <- true;
          ev.offset <- None);
      let t = Thread.create consumer cursor in
      locked (fun () -> ev.thread <- Some t);
      true
    with _ -> false

let stop_events () =
  let t =
    locked (fun () ->
        if not ev.running then None
        else begin
          ev.stop_requested <- true;
          let t = ev.thread in
          ev.thread <- None;
          t
        end)
  in
  match t with
  | None -> ()
  | Some t ->
      (try Thread.join t with _ -> ());
      (try Runtime_events.pause () with _ -> ());
      locked (fun () -> ev.running <- false)

let clear_events () =
  locked (fun () ->
      ev.slices <- [];
      ev.slice_count <- 0;
      ev.dropped_slices <- 0;
      ev.counters <- [];
      ev.counter_count <- 0;
      ev.dropped_counters <- 0;
      Hashtbl.reset ev.begins)

let gc_slices () = locked (fun () -> List.rev ev.slices)

(* Perfetto merge: GC slices as complete events on the owning domain's
   track (pid 2 keeps them visually separate from spans), counter
   samples as "C" events which Perfetto renders as counter tracks. *)
let perfetto_events () =
  let slices, counters =
    locked (fun () -> (List.rev ev.slices, List.rev ev.counters))
  in
  List.map
    (fun s ->
      Json.Obj
        [
          ("name", Json.String ("gc:" ^ s.phase));
          ("cat", Json.String "gc");
          ("ph", Json.String "X");
          ("ts", Json.Float (s.start_s *. 1e6));
          ("dur", Json.Float (s.duration_s *. 1e6));
          ("pid", Json.Int 1);
          ("tid", Json.Int s.domain);
        ])
    slices
  @ List.map
      (fun c ->
        Json.Obj
          [
            ("name", Json.String ("gc:" ^ c.counter));
            ("cat", Json.String "gc");
            ("ph", Json.String "C");
            ("ts", Json.Float (c.t_s *. 1e6));
            ("pid", Json.Int 1);
            ("tid", Json.Int c.c_domain);
            ("args", Json.Obj [ ("value", Json.Float c.value) ]);
          ])
      counters

let status_json () =
  let q = sample () in
  locked (fun () ->
      Json.Obj
        [
          ("profiling", Json.Bool (profiling_enabled ()));
          ("events_running", Json.Bool ev.running);
          ("gc_slices", Json.Int ev.slice_count);
          ("dropped_slices", Json.Int ev.dropped_slices);
          ("counter_samples", Json.Int ev.counter_count);
          ("dropped_counters", Json.Int ev.dropped_counters);
          ("ocaml_version", Json.String Sys.ocaml_version);
          ("minor_words", Json.Float q.minor_words);
          ("promoted_words", Json.Float q.promoted_words);
          ("major_words", Json.Float q.major_words);
          ("minor_collections", Json.Int q.minor_collections);
          ("major_collections", Json.Int q.major_collections);
          ("compactions", Json.Int q.compactions);
          ("heap_words", Json.Int q.heap_words);
          ("top_heap_words", Json.Int q.top_heap_words);
        ])
