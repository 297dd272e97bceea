let default_clock () = Unix.gettimeofday ()

let clock = ref default_clock

let now () = !clock ()

let set_clock f = clock := f

let use_default_clock () = clock := default_clock

(* GC profiling is a process-wide switch shared with [Runtime] (which
   owns the aggregate counters) and [Urs_exec.Pool] (per-task deltas).
   The atomic lives here — the lowest layer that needs it — so neither
   module depends on the other. Off by default: a disabled probe costs
   one atomic load per span. *)
let gc_profiling = Atomic.make false

let set_gc_profiling b = Atomic.set gc_profiling b

let gc_profiling_enabled () = Atomic.get gc_profiling

(* Domain-local minor, promoted and major word counts. Minor words come
   from [Gc.minor_words]: the OCaml 5.1 runtime's [Gc.counters] counts
   the words allocated since the last minor collection an eighth too
   low (young_end − young_ptr, a difference of [value *] pointers and
   so already in words, is converted from bytes once more), so its
   deltas lose 7/8 of what a task allocates between collections.
   Promoted and major words have no such part. *)
let gc_counters () =
  let _, promoted, major = Gc.counters () in
  (Gc.minor_words (), promoted, major)

type gc_words = {
  gc_minor : float;  (* words allocated in the minor heap during the span *)
  gc_promoted : float;
  gc_major : float;  (* words allocated directly in the major heap *)
}

type node = {
  name : string;
  labels : Metrics.labels;
  start : float;
  domain : int;  (* id of the domain that ran the span *)
  trace_hi : int64;  (* the trace this span belongs to *)
  trace_lo : int64;
  span_id : int64;
  parent_span : int64 option;
      (* the ambient context's span id at entry. For physically nested
         spans this is the enclosing node's id; for a pool task it is
         the id captured on the submitting domain, which is how the
         per-domain forests knit back into one logical tree. *)
  mutable duration : float;
  mutable gc : gc_words option;  (* only when GC profiling was enabled *)
  mutable children : node list; (* reverse completion order *)
}

let tracing = Atomic.make false

(* The open-span stack is domain-local: a pool task's spans nest under
   whatever is open on that task's domain, never under another domain's
   spans. Completed roots are shared, behind a mutex. *)
let stack_key : node list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

let trace_lock = Mutex.create ()

let roots : node list ref = ref [] (* reverse completion order *)

let root_count = ref 0

let dropped = ref 0

let max_roots = 16_384

let reset_trace () =
  Domain.DLS.get stack_key := [];
  Mutex.lock trace_lock;
  roots := [];
  root_count := 0;
  dropped := 0;
  Mutex.unlock trace_lock

let set_tracing b =
  Atomic.set tracing b;
  if b then reset_trace ()

let tracing_enabled () = Atomic.get tracing

let add_root n =
  Mutex.lock trace_lock;
  if !root_count >= max_roots then incr dropped
  else begin
    roots := n :: !roots;
    incr root_count
  end;
  Mutex.unlock trace_lock

let with_ ?registry ?(labels = []) ~name f =
  let hist =
    Metrics.histogram ?registry ~labels ~help:"span duration"
      (name ^ "_seconds")
  in
  let t0 = now () in
  let node, ctx =
    if Atomic.get tracing then begin
      let stack = Domain.DLS.get stack_key in
      (* the span's own context is a child of the ambient one (a fresh
         trace when there is none), so span ids form a tree that spans
         domain boundaries: a pool task restores the submitter's
         context before calling us *)
      let parent = Context.current () in
      let ctx =
        match parent with
        | Some c -> Context.child c
        | None -> Context.new_trace ()
      in
      let n =
        {
          name;
          labels;
          start = t0;
          domain = (Domain.self () :> int);
          trace_hi = ctx.Context.trace_hi;
          trace_lo = ctx.Context.trace_lo;
          span_id = ctx.Context.span_id;
          parent_span = Option.map (fun c -> c.Context.span_id) parent;
          duration = 0.0;
          gc = None;
          children = [];
        }
      in
      stack := n :: !stack;
      (Some n, Some ctx)
    end
    else (None, None)
  in
  (* sampled only when both tracing and GC profiling are on: the words
     are attached to the trace node (flame JSON fields, perfetto args),
     while aggregate counters belong to [Runtime] probes *)
  (* the counters are domain-local, so a span on a pool domain measures
     only its own allocation, not its concurrently-running siblings' *)
  let gc0 =
    match node with
    | Some _ when Atomic.get gc_profiling -> Some (gc_counters ())
    | _ -> None
  in
  Fun.protect
    ~finally:(fun () ->
      let dt = now () -. t0 in
      Metrics.observe hist dt;
      match node with
      | None -> ()
      | Some n -> (
          n.duration <- dt;
          (match gc0 with
          | None -> ()
          | Some (minor0, promoted0, major0) ->
              let minor1, promoted1, major1 = gc_counters () in
              n.gc <-
                Some
                  {
                    gc_minor = minor1 -. minor0;
                    gc_promoted = promoted1 -. promoted0;
                    gc_major = major1 -. major0;
                  });
          let stack = Domain.DLS.get stack_key in
          match !stack with
          | top :: rest when top == n -> (
              stack := rest;
              match rest with
              | parent :: _ -> parent.children <- n :: parent.children
              | [] -> add_root n)
          | _ ->
              (* unbalanced (tracing toggled mid-span): drop the node *)
              ()))
    (fun () ->
      match ctx with None -> f () | Some c -> Context.with_current c f)

let node_trace_id n =
  Printf.sprintf "%016Lx%016Lx" n.trace_hi n.trace_lo

let rec node_json n =
  let base =
    [
      ("name", Json.String n.name);
      ("start_s", Json.Float n.start);
      ("duration_s", Json.Float n.duration);
      ("domain", Json.Int n.domain);
      ("trace_id", Json.String (node_trace_id n));
      ("span_id", Json.String (Context.id_hex n.span_id));
    ]
    @
    match n.parent_span with
    | None -> []
    | Some p -> [ ("parent_span_id", Json.String (Context.id_hex p)) ]
  in
  let labels =
    if n.labels = [] then []
    else
      [
        ( "labels",
          Json.Obj (List.map (fun (k, v) -> (k, Json.String v)) n.labels) );
      ]
  in
  let gc =
    match n.gc with
    | None -> []
    | Some g ->
        [
          ("gc_minor_words", Json.Float g.gc_minor);
          ("gc_promoted_words", Json.Float g.gc_promoted);
          ("gc_major_words", Json.Float g.gc_major);
        ]
  in
  let children =
    if n.children = [] then []
    else [ ("children", Json.List (List.rev_map node_json n.children)) ]
  in
  Json.Obj (base @ labels @ gc @ children)

let trace_json () =
  let roots, dropped =
    Mutex.lock trace_lock;
    let r = !roots and d = !dropped in
    Mutex.unlock trace_lock;
    (r, d)
  in
  Json.to_string
    (Json.Obj
       [
         ("spans", Json.List (List.rev_map node_json roots));
         ("dropped", Json.Int dropped);
       ])

(* Chrome/Perfetto "trace_events": the span tree flattened into complete
   ("ph":"X") events with microsecond timestamps. The domain id becomes
   the tid, so each domain renders as its own track and pool parallelism
   is visible at a glance; nesting within a track is reconstructed by
   the viewer from the ts/dur containment. [extra] events (e.g. GC
   slices and counter samples from [Runtime]) are appended verbatim. *)
let trace_perfetto ?(extra = []) () =
  let events = ref [] in
  let rec emit n =
    let args =
      let ids =
        [
          ("trace_id", Json.String (node_trace_id n));
          ("span_id", Json.String (Context.id_hex n.span_id));
        ]
        @
        match n.parent_span with
        | None -> []
        | Some p -> [ ("parent_span_id", Json.String (Context.id_hex p)) ]
      in
      let gc =
        match n.gc with
        | None -> []
        | Some g ->
            [
              ("gc_minor_words", Json.Float g.gc_minor);
              ("gc_promoted_words", Json.Float g.gc_promoted);
              ("gc_major_words", Json.Float g.gc_major);
            ]
      in
      let labels = List.map (fun (k, v) -> (k, Json.String v)) n.labels in
      [ ("args", Json.Obj (labels @ ids @ gc)) ]
    in
    events :=
      Json.Obj
        ([
           ("name", Json.String n.name);
           ("ph", Json.String "X");
           ("ts", Json.Float (n.start *. 1e6));
           ("dur", Json.Float (n.duration *. 1e6));
           ("pid", Json.Int 1);
           ("tid", Json.Int n.domain);
         ]
        @ args)
      :: !events;
    List.iter emit (List.rev n.children)
  in
  let roots =
    Mutex.lock trace_lock;
    let r = !roots in
    Mutex.unlock trace_lock;
    r
  in
  List.iter emit (List.rev roots);
  (* Cross-domain parent/child edges become flow-event pairs so Perfetto
     draws an arrow from the submitting domain's slice to the worker's:
     "s" sits on the parent's track, "f" (bp:"e" — bind to enclosing
     slice) on the child's, both stamped with the child's start time and
     keyed by the child's span id. Same-domain edges need no flows — the
     viewer already nests those by ts/dur containment. *)
  let index : (int64, node) Hashtbl.t = Hashtbl.create 64 in
  let rec index_node n =
    Hashtbl.replace index n.span_id n;
    List.iter index_node n.children
  in
  List.iter index_node roots;
  let flows = ref [] in
  let flow_event ph n tid =
    let base =
      [
        ("name", Json.String "urs_task");
        ("cat", Json.String "pool");
        ("ph", Json.String ph);
        ("id", Json.String (Context.id_hex n.span_id));
        ("ts", Json.Float (n.start *. 1e6));
        ("pid", Json.Int 1);
        ("tid", Json.Int tid);
      ]
    in
    Json.Obj (if ph = "f" then base @ [ ("bp", Json.String "e") ] else base)
  in
  Hashtbl.iter
    (fun _ n ->
      match n.parent_span with
      | Some p -> (
          match Hashtbl.find_opt index p with
          | Some parent when parent.domain <> n.domain ->
              flows :=
                flow_event "s" n parent.domain :: flow_event "f" n n.domain
                :: !flows
          | _ -> ())
      | None -> ())
    index;
  Json.to_string
    (Json.Obj
       [
         ("traceEvents", Json.List (List.rev !events @ !flows @ extra));
         ("displayTimeUnit", Json.String "ms");
       ])
