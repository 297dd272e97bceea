(* Iteration recorder for the numerical core. One recorder per solve,
   mutex-guarded; finished traces go to a process-global ring shared by
   the HTTP route, the CLI and the Perfetto export. Recording is gated
   globally and off by default so the kernels' observe callbacks cost
   nothing in ordinary solves. *)

type sample = {
  iteration : int;
  residual : float;
  shift : float;
  active : int;
  deflation : bool;
  t : float;
}

type trace = {
  seq : int;
  solver : string;
  label : string;
  started : float;
  finished : float;
  iterations : int;
  max_iter : int option;
  converged : bool;
  deflations : int;
  dropped : int;
  samples : sample array;
  residual_first : float;
  residual_last : float;
  residual_min : float;
  residual_mean : float;
  residual_count : int;
}

(* ---- global state ---- *)

let enabled = Atomic.make false

let recording () = Atomic.get enabled

let set_recording v = Atomic.set enabled v

let ring_capacity = 64

let ring_mutex = Mutex.create ()

let ring : trace option array = Array.make ring_capacity None

let ring_next = ref 0 (* total traces ever finished; also the seq source *)

let push_trace mk =
  Mutex.protect ring_mutex (fun () ->
      let seq = !ring_next + 1 in
      ring_next := seq;
      let t = mk seq in
      ring.((seq - 1) mod ring_capacity) <- Some t;
      t)

let last_seq () = Mutex.protect ring_mutex (fun () -> !ring_next)

let recent ?limit () =
  let all =
    Mutex.protect ring_mutex (fun () ->
        let total = !ring_next in
        let kept = min total ring_capacity in
        List.filter_map
          (fun i -> ring.((total - kept + i) mod ring_capacity))
          (List.init kept Fun.id))
  in
  match limit with
  | None -> all
  | Some n ->
      let len = List.length all in
      List.filteri (fun i _ -> i >= len - n) all

let reset () =
  Atomic.set enabled false;
  Mutex.protect ring_mutex (fun () ->
      Array.fill ring 0 ring_capacity None;
      ring_next := 0)

(* ---- recorders ---- *)

type recorder = {
  solver : string;
  label : string;
  r_max_iter : int option;
  capacity : int;
  started : float;
  mutex : Mutex.t;
  buf : sample array; (* circular; only the first [min total capacity] live *)
  mutable total : int; (* samples ever observed *)
  mutable iterations : int;
  mutable deflations : int;
  mutable residual_first : float;
  mutable residual_last : float;
  mutable residual_min : float;
  welford : Urs_stats.Welford.t;
  mutable sealed : trace option;
}

let dummy_sample =
  { iteration = 0; residual = nan; shift = nan; active = 0; deflation = false;
    t = 0.0 }

let create ?(capacity = 512) ?max_iter ~solver ~label () =
  if capacity <= 0 then invalid_arg "Convergence.create: capacity";
  {
    solver;
    label;
    r_max_iter = max_iter;
    capacity;
    started = Span.now ();
    mutex = Mutex.create ();
    buf = Array.make capacity dummy_sample;
    total = 0;
    iterations = 0;
    deflations = 0;
    residual_first = nan;
    residual_last = nan;
    residual_min = nan;
    welford = Urs_stats.Welford.create ();
    sealed = None;
  }

let observe r ~iteration ?(residual = nan) ?(shift = nan) ?(active = 0)
    ?(deflation = false) () =
  Mutex.protect r.mutex (fun () ->
      if r.sealed = None then begin
        let s =
          { iteration; residual; shift; active; deflation; t = Span.now () }
        in
        r.buf.(r.total mod r.capacity) <- s;
        r.total <- r.total + 1;
        if iteration > r.iterations then r.iterations <- iteration;
        if deflation then r.deflations <- r.deflations + 1;
        if Float.is_finite residual then begin
          if Float.is_nan r.residual_first then r.residual_first <- residual;
          r.residual_last <- residual;
          if Float.is_nan r.residual_min || residual < r.residual_min then
            r.residual_min <- residual;
          Urs_stats.Welford.add r.welford residual
        end
      end)

let m_iterations solver =
  Metrics.gauge
    ~labels:[ ("solver", solver) ]
    ~help:"Iterations of the last finished convergence trace"
    "urs_convergence_iterations"

let m_traces solver =
  Metrics.counter
    ~labels:[ ("solver", solver) ]
    ~help:"Convergence traces finished" "urs_convergence_traces_total"

let finish ?(converged = true) r =
  let fresh =
    Mutex.protect r.mutex (fun () ->
        match r.sealed with
        | Some t -> Error t
        | None ->
            let kept = min r.total r.capacity in
            let samples =
              Array.init kept (fun i ->
                  r.buf.((r.total - kept + i) mod r.capacity))
            in
            let finished = Span.now () in
            let t =
              push_trace (fun seq ->
                  {
                    seq;
                    solver = r.solver;
                    label = r.label;
                    started = r.started;
                    finished;
                    iterations = r.iterations;
                    max_iter = r.r_max_iter;
                    converged;
                    deflations = r.deflations;
                    dropped = r.total - kept;
                    samples;
                    residual_first = r.residual_first;
                    residual_last = r.residual_last;
                    residual_min = r.residual_min;
                    residual_mean = Urs_stats.Welford.mean r.welford;
                    residual_count = Urs_stats.Welford.count r.welford;
                  })
            in
            r.sealed <- Some t;
            Ok t)
  in
  match fresh with
  | Error t -> t
  | Ok t ->
      Metrics.set (m_iterations t.solver) (float_of_int t.iterations);
      Metrics.inc (m_traces t.solver);
      Ledger.record ~kind:"convergence"
        ~params:
          ([
             ("solver", Json.String t.solver);
             ("label", Json.String t.label);
           ]
          @
          match t.max_iter with
          | Some m -> [ ("max_iter", Json.Int m) ]
          | None -> [])
        ~wall_seconds:(t.finished -. t.started)
        ~outcome:(if t.converged then "ok" else "no-convergence")
        ~summary:
          [
            ("iterations", Json.Int t.iterations);
            ("deflations", Json.Int t.deflations);
            ("samples", Json.Int (Array.length t.samples));
            ("residual_first", Json.Float t.residual_first);
            ("residual_last", Json.Float t.residual_last);
            ("residual_min", Json.Float t.residual_min);
            ("residual_mean", Json.Float t.residual_mean);
          ]
        ();
      t

type observer =
  iteration:int ->
  ?residual:float ->
  ?shift:float ->
  ?active:int ->
  ?deflation:bool ->
  unit ->
  unit

let track ?max_iter ~solver ~label ~callback ~converged kernel =
  if not (recording ()) then kernel None
  else begin
    let r = create ?max_iter ~solver ~label:(label ()) () in
    match kernel (Some (callback (observe r))) with
    | v ->
        ignore (finish ~converged:(converged v) r : trace);
        v
    | exception e ->
        let bt = Printexc.get_raw_backtrace () in
        ignore (finish ~converged:false r : trace);
        Printexc.raise_with_backtrace e bt
  end

let with_recording f =
  let prev = Atomic.exchange enabled true in
  let mark = last_seq () in
  let restore () = Atomic.set enabled prev in
  let result = Fun.protect ~finally:restore f in
  let traces = List.filter (fun t -> t.seq > mark) (recent ()) in
  (result, traces)

(* ---- export ---- *)

let sample_to_json (s : sample) =
  Json.Obj
    [
      ("iteration", Json.Int s.iteration);
      ("residual", Json.Float s.residual);
      ("shift", Json.Float s.shift);
      ("active", Json.Int s.active);
      ("deflation", Json.Bool s.deflation);
      ("t", Json.Float s.t);
    ]

let trace_to_json (t : trace) =
  Json.Obj
    [
      ("seq", Json.Int t.seq);
      ("solver", Json.String t.solver);
      ("label", Json.String t.label);
      ("started", Json.Float t.started);
      ("finished", Json.Float t.finished);
      ("iterations", Json.Int t.iterations);
      ( "max_iter",
        match t.max_iter with Some m -> Json.Int m | None -> Json.Null );
      ("converged", Json.Bool t.converged);
      ("deflations", Json.Int t.deflations);
      ("dropped", Json.Int t.dropped);
      ("residual_first", Json.Float t.residual_first);
      ("residual_last", Json.Float t.residual_last);
      ("residual_min", Json.Float t.residual_min);
      ("residual_mean", Json.Float t.residual_mean);
      ("residual_count", Json.Int t.residual_count);
      ("samples", Json.List (Array.to_list (Array.map sample_to_json t.samples)));
    ]

let to_json ?limit () =
  Json.Obj
    [ ("traces", Json.List (List.map trace_to_json (recent ?limit ()))) ]

(* Counter tracks for the Perfetto export: one track per trace, one
   event per sample, in the same shape Runtime.perfetto_events uses
   (ph="C", absolute-microsecond ts, pid 1). *)
let perfetto_events () =
  List.concat_map
    (fun (t : trace) ->
      let name = Printf.sprintf "conv:%s:%d" t.solver t.seq in
      Array.to_list
        (Array.map
           (fun s ->
             let args =
               ("remaining", Json.Int s.active)
               ::
               (if Float.is_finite s.residual then
                  [ ("residual", Json.Float s.residual) ]
                else [])
             in
             Json.Obj
               [
                 ("name", Json.String name);
                 ("cat", Json.String "convergence");
                 ("ph", Json.String "C");
                 ("ts", Json.Float (s.t *. 1e6));
                 ("pid", Json.Int 1);
                 ("tid", Json.Int 0);
                 ("args", Json.Obj args);
               ])
           t.samples))
    (recent ())

let pp_trace ppf (t : trace) =
  Format.fprintf ppf
    "#%d %-14s %-24s %4d iter%s  %2d defl  residual %.2e -> %.2e%s" t.seq
    t.solver t.label t.iterations
    (match t.max_iter with
    | Some m -> Printf.sprintf "/%d" m
    | None -> "")
    t.deflations t.residual_first t.residual_last
    (if t.converged then "" else "  NOT CONVERGED")
