(* Fixed-size domain pool. One shared FIFO of closures; the submitting
   thread participates in draining its own batch, so [domains = 1] never
   spawns anything and nested submissions cannot deadlock (the nested
   submitter executes queued tasks itself while it waits). *)

module Metrics = Urs_obs.Metrics
module Span = Urs_obs.Span
module Timeline = Urs_obs.Timeline
module Context = Urs_obs.Context

type t = {
  name : string;
  width : int;
  lock : Mutex.t;
  nonempty : Condition.t;
  q : (unit -> unit) Queue.t;
  mutable closed : bool;
  mutable workers : unit Domain.t list;
  m_tasks : Metrics.counter;
  m_failures : Metrics.counter;
  (* per-task GC deltas, recorded only while [Span.gc_profiling_enabled]
     (armed by [Urs_obs.Runtime.set_profiling]; off by default, so the
     width = 1 fast path keeps its no-extra-metrics promise unless the
     user explicitly profiles). [Span.gc_counters] is domain-local, so
     each task measures its own domain's allocation. *)
  m_gc_minor : Metrics.counter;
  m_gc_promoted : Metrics.counter;
  m_gc_major : Metrics.counter;
  (* wall-clock timelines (parallel pools only): pending-task queue depth
     and domains currently inside a task. Recorded on the shared-queue
     paths, so the width = 1 inline fast path stays untouched. *)
  s_queue : Timeline.series option;
  s_busy : Timeline.series option;
  busy : int Atomic.t;
}

let domains t = t.width

let record_queue t depth =
  match t.s_queue with
  | Some s -> Timeline.record s ~t:(Span.now ()) (float_of_int depth)
  | None -> ()

let record_busy t delta =
  match t.s_busy with
  | Some s ->
      let b = Atomic.fetch_and_add t.busy delta + delta in
      Timeline.record s ~t:(Span.now ()) (float_of_int b)
  | None -> ()

let try_pop t =
  Mutex.lock t.lock;
  let task = if Queue.is_empty t.q then None else Some (Queue.pop t.q) in
  let depth = Queue.length t.q in
  Mutex.unlock t.lock;
  (match task with Some _ -> record_queue t depth | None -> ());
  task

let rec worker_loop t =
  Mutex.lock t.lock;
  while Queue.is_empty t.q && not t.closed do
    Condition.wait t.nonempty t.lock
  done;
  if Queue.is_empty t.q then Mutex.unlock t.lock (* closed and drained *)
  else begin
    let task = Queue.pop t.q in
    let depth = Queue.length t.q in
    Mutex.unlock t.lock;
    record_queue t depth;
    task ();
    worker_loop t
  end

let create ?(name = "default") ~domains () =
  if domains < 1 then invalid_arg "Pool.create: domains must be >= 1";
  let labels = [ ("pool", name) ] in
  let t =
    {
      name;
      width = domains;
      lock = Mutex.create ();
      nonempty = Condition.create ();
      q = Queue.create ();
      closed = false;
      workers = [];
      m_tasks =
        Metrics.counter ~labels ~help:"Tasks executed by the domain pool"
          "urs_pool_tasks_total";
      m_failures =
        Metrics.counter ~labels ~help:"Pool tasks that raised an exception"
          "urs_pool_task_failures_total";
      m_gc_minor =
        Metrics.counter ~labels
          ~help:"Minor-heap words allocated inside pool tasks (GC profiling)"
          "urs_pool_gc_minor_words_total";
      m_gc_promoted =
        Metrics.counter ~labels
          ~help:"Words promoted minor->major inside pool tasks (GC profiling)"
          "urs_pool_gc_promoted_words_total";
      m_gc_major =
        Metrics.counter ~labels
          ~help:"Major-heap words allocated inside pool tasks (GC profiling)"
          "urs_pool_gc_major_words_total";
      s_queue =
        (if domains > 1 then
           Some (Timeline.series ~horizon:16.0 ~labels "urs_pool_queue_depth")
         else None);
      s_busy =
        (if domains > 1 then
           Some (Timeline.series ~horizon:16.0 ~labels "urs_pool_busy_domains")
         else None);
      busy = Atomic.make 0;
    }
  in
  t.workers <-
    List.init (domains - 1) (fun _ -> Domain.spawn (fun () -> worker_loop t));
  t

let shutdown t =
  Mutex.lock t.lock;
  if t.closed then Mutex.unlock t.lock
  else begin
    t.closed <- true;
    Condition.broadcast t.nonempty;
    Mutex.unlock t.lock;
    List.iter Domain.join t.workers;
    t.workers <- []
  end

let with_pool ?name ~domains f =
  let t = create ?name ~domains () in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

(* Wrap one task with a GC word delta when profiling is armed; raises
   pass through (the words allocated up to the raise still count). One
   atomic load when profiling is off. *)
let with_gc_delta t f =
  if not (Span.gc_profiling_enabled ()) then f ()
  else begin
    (* domain-local counters (quick_stat aggregates the whole process):
       tasks running concurrently on sibling domains must not leak into
       each other's delta *)
    let minor0, promoted0, major0 = Span.gc_counters () in
    Fun.protect
      ~finally:(fun () ->
        let minor1, promoted1, major1 = Span.gc_counters () in
        Metrics.inc ~by:(minor1 -. minor0) t.m_gc_minor;
        Metrics.inc ~by:(promoted1 -. promoted0) t.m_gc_promoted;
        Metrics.inc ~by:(major1 -. major0) t.m_gc_major)
      f
  end

let check_open t =
  let closed =
    Mutex.lock t.lock;
    let c = t.closed in
    Mutex.unlock t.lock;
    c
  in
  if closed then invalid_arg "Pool.map: pool is shut down"

(* Run one batch, returning per-task outcomes in input order. Tasks
   never let exceptions escape into the worker loop: each outcome is
   reified into its slot. *)
let run_batch t f arr =
  let n = Array.length arr in
  if t.width = 1 then
    (* sequential fast path: run inline, in order, with no queueing and
       no extra metrics — bit-identical to not using a pool at all *)
    Array.map
      (fun x ->
        try Ok (with_gc_delta t (fun () -> f x))
        with e -> Error (e, Printexc.get_raw_backtrace ()))
      arr
  else begin
    let out = Array.make n None in
    let batch_lock = Mutex.create () in
    let batch_done = Condition.create () in
    let remaining = ref n in
    (* capture the submitter's trace context once per batch and restore
       it inside each task: the ambient cell is domain-local, so a task
       running on a worker domain would otherwise start an unrelated
       trace and its spans could not parent onto the submitting span *)
    let ctx = Context.capture () in
    let task i () =
      record_busy t 1;
      let r =
        try
          Ok
            (with_gc_delta t (fun () ->
                 Context.restore ctx (fun () ->
                     Span.with_ ~name:"urs_pool_task"
                       ~labels:[ ("pool", t.name) ]
                       (fun () -> f arr.(i)))))
        with e ->
          let bt = Printexc.get_raw_backtrace () in
          Metrics.inc t.m_failures;
          Error (e, bt)
      in
      record_busy t (-1);
      Metrics.inc t.m_tasks;
      out.(i) <- Some r;
      Mutex.lock batch_lock;
      decr remaining;
      if !remaining = 0 then Condition.broadcast batch_done;
      Mutex.unlock batch_lock
    in
    Mutex.lock t.lock;
    if t.closed then begin
      Mutex.unlock t.lock;
      invalid_arg "Pool.map: pool is shut down"
    end;
    for i = 0 to n - 1 do
      Queue.push (task i) t.q
    done;
    let depth = Queue.length t.q in
    Condition.broadcast t.nonempty;
    Mutex.unlock t.lock;
    record_queue t depth;
    (* participate until the queue is empty, then wait for stragglers
       still running on worker domains *)
    let rec drain () =
      match try_pop t with
      | Some task ->
          task ();
          drain ()
      | None -> ()
    in
    drain ();
    Mutex.lock batch_lock;
    while !remaining > 0 do
      Condition.wait batch_done batch_lock
    done;
    Mutex.unlock batch_lock;
    Array.map (function Some r -> r | None -> assert false) out
  end

let map_result t f xs =
  check_open t;
  match xs with
  | [] -> []
  | xs ->
      Array.to_list
        (Array.map
           (function Ok v -> Ok v | Error (e, _) -> Error e)
           (run_batch t f (Array.of_list xs)))

let map t f xs =
  check_open t;
  match xs with
  | [] -> []
  | xs -> (
      let results = run_batch t f (Array.of_list xs) in
      (* re-raise the earliest failing input, with its backtrace *)
      match
        Array.fold_left
          (fun acc r ->
            match (acc, r) with Some _, _ -> acc | None, Error eb -> Some eb | None, Ok _ -> None)
          None results
      with
      | Some (e, bt) -> Printexc.raise_with_backtrace e bt
      | None ->
          Array.to_list
            (Array.map (function Ok v -> v | Error _ -> assert false) results))

let map_reduce t ~map:f ~fold ~init xs =
  List.fold_left fold init (map t f xs)
