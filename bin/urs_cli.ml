(* Command-line interface to the library: evaluate models, check
   stability, fit distributions to logs, generate synthetic logs and run
   simulations without writing OCaml. *)

open Cmdliner

(* ---- observability wiring ----

   Every subcommand accepts --verbose/-v (with the URS_LOG env var as a
   fallback), --metrics FILE / --metrics-format, and --trace FILE. A
   Logs format reporter is installed up front so library warnings
   (e.g. urs.spectral eigenvalue-count complaints, urs.sweep dropped
   points) are no longer silently discarded. *)

type obs = {
  metrics : string option;
  format : [ `Prometheus | `Json ];
  trace : string option;
  trace_format : [ `Flame | `Perfetto ];
  ledger : string option;
  ledger_max_bytes : int option;
  ledger_keep : int;
  ledger_flush_every : int;
  serve : int option;
  jobs : int;
  profile_gc : bool;
}

let setup_logs verbose =
  Logs.set_reporter (Logs_fmt.reporter ());
  let level =
    if verbose >= 2 then Some Logs.Debug
    else if verbose = 1 then Some Logs.Info
    else
      match Sys.getenv_opt "URS_LOG" with
      | None -> Some Logs.Warning
      | Some s -> (
          match Logs.level_of_string s with
          | Ok l -> l
          | Error _ ->
              Format.eprintf "urs: ignoring invalid URS_LOG=%S@." s;
              Some Logs.Warning)
  in
  Logs.set_level level

let write_output path content =
  if path = "-" then print_string content
  else begin
    let oc = open_out path in
    output_string oc content;
    close_out oc
  end

let dump_obs obs =
  (* an unwritable destination should lose the snapshot, not the run's
     exit status (dump_obs runs from a Fun.protect finally) *)
  let write path content =
    try write_output path content
    with Sys_error msg -> Format.eprintf "urs: cannot write metrics: %s@." msg
  in
  (match obs.metrics with
  | None -> ()
  | Some path ->
      let snap = Urs_obs.Metrics.snapshot () in
      let body =
        match obs.format with
        | `Prometheus -> Urs_obs.Export.prometheus snap
        | `Json -> Urs_obs.Export.json snap ^ "\n"
      in
      write path body);
  match obs.trace with
  | None -> ()
  | Some path ->
      let body =
        match obs.trace_format with
        | `Flame -> Urs_obs.Span.trace_json ()
        | `Perfetto ->
            (* GC slices and allocation counter tracks captured by the
               Runtime_events consumer (empty without --profile-gc), plus
               per-solve convergence residual counter tracks *)
            Urs_obs.Span.trace_perfetto
              ~extra:
                (Urs_obs.Runtime.perfetto_events ()
                @ Urs_obs.Convergence.perfetto_events ())
              ()
      in
      write path (body ^ "\n")

(* ---- HTTP routes shared by `urs serve` and --serve-metrics ----
   (implemented in Urs_obs.Routes, so the /metrics content type and
   quantile rendering are testable from the library) *)

let standard_routes = Urs_obs.Routes.standard

(* dump on the way out even if the command fails, so a crashed run still
   leaves its metrics behind. [f] receives the work pool ([Some _] only
   when --jobs/URS_JOBS asked for more than one domain, so --jobs 1 is
   exactly the sequential code path). *)
let with_obs obs f =
  (* every CLI run is one trace: URS_TRACEPARENT continues a caller's
     trace (CI step, parent script), URS_TRACE_SEED makes the ids
     deterministic, and otherwise the run starts a fresh trace. The
     root context is installed ambiently on the main domain, so spans,
     ledger records and outbound Http.request calls all correlate. *)
  (match Sys.getenv_opt "URS_TRACE_SEED" with
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some seed -> Urs_obs.Context.set_seed seed
      | None -> Format.eprintf "urs: ignoring non-integer URS_TRACE_SEED@.")
  | None -> ());
  let root_ctx =
    match Sys.getenv_opt "URS_TRACEPARENT" with
    | Some tp -> (
        match Urs_obs.Context.of_traceparent tp with
        | Ok inbound -> Urs_obs.Context.child inbound
        | Error msg ->
            Format.eprintf "urs: ignoring URS_TRACEPARENT (%s)@." msg;
            Urs_obs.Context.new_trace ()
        )
    | None -> Urs_obs.Context.new_trace ()
  in
  if obs.trace <> None || obs.ledger <> None then
    Format.eprintf "urs: trace id %s@."
      (Urs_obs.Context.trace_id_hex root_ctx);
  if obs.trace <> None then Urs_obs.Span.set_tracing true;
  (* iteration-level convergence telemetry rides along whenever the run
     is being observed anyway; results are bit-identical either way *)
  if obs.trace <> None || obs.ledger <> None then
    Urs_obs.Convergence.set_recording true;
  if obs.profile_gc then Urs_obs.Runtime.set_profiling true;
  let started_events = obs.profile_gc && Urs_obs.Runtime.start_events () in
  (match obs.ledger with
  | Some path ->
      Urs_obs.Ledger.open_file ?max_bytes:obs.ledger_max_bytes
        ~keep:obs.ledger_keep ~flush_every:obs.ledger_flush_every path
  | None -> ());
  let server =
    match obs.serve with
    | None -> None
    | Some port ->
        Urs_obs.Ledger.set_memory true;
        let s = Urs_obs.Http.start ~port ~routes:standard_routes () in
        Format.eprintf "urs: live metrics on http://127.0.0.1:%d/metrics@."
          (Urs_obs.Http.port s);
        Some s
  in
  let pool =
    if obs.jobs > 1 then Some (Urs_exec.Pool.create ~name:"cli" ~domains:obs.jobs ())
    else None
  in
  Fun.protect
    ~finally:(fun () ->
      Option.iter Urs_exec.Pool.shutdown pool;
      (* stop the consumer before dumping so the trace includes every
         drained GC slice; only stop what this run started *)
      if started_events then Urs_obs.Runtime.stop_events ();
      dump_obs obs;
      Option.iter Urs_obs.Http.stop server;
      Urs_obs.Ledger.close ())
    (fun () ->
      (* the urs_cli span closes before ~finally dumps the trace, so it
         is always part of its own output *)
      Urs_obs.Context.with_current root_ctx (fun () ->
          Urs_obs.Span.with_ ~name:"urs_cli" (fun () -> f pool)))

let obs_t =
  let verbose =
    Arg.(
      value & flag_all
      & info [ "v"; "verbose" ]
          ~doc:
            "Increase log verbosity (once: info, twice: debug). Without the \
             flag the level comes from the URS_LOG environment variable \
             (quiet|error|warning|info|debug), defaulting to warning.")
  in
  let metrics =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics" ] ~docv:"FILE"
          ~doc:
            "After the run, write a snapshot of the metrics registry to \
             $(docv) ('-' for stdout).")
  in
  let format =
    Arg.(
      value
      & opt
          (enum
             [ ("prom", `Prometheus); ("prometheus", `Prometheus);
               ("json", `Json) ])
          `Prometheus
      & info [ "metrics-format" ]
          ~doc:"Metrics snapshot format: $(b,prom) or $(b,json).")
  in
  let trace =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Collect a hierarchical span trace during the run and write it \
             to $(docv) ('-' for stdout) in the --trace-format.")
  in
  let trace_format =
    Arg.(
      value
      & opt (enum [ ("flame", `Flame); ("perfetto", `Perfetto) ]) `Flame
      & info [ "trace-format" ]
          ~doc:
            "Trace output format: $(b,flame) (hierarchical span JSON) or \
             $(b,perfetto) (Chrome trace_events JSON — open in \
             ui.perfetto.dev or chrome://tracing; domains appear as \
             separate tracks).")
  in
  let ledger =
    Arg.(
      value
      & opt (some string) None
      & info [ "ledger" ] ~docv:"FILE"
          ~doc:
            "Append one JSONL record per solver call, sweep point and \
             simulation replication to $(docv) (the run ledger; see the \
             README).")
  in
  let ledger_max_bytes =
    Arg.(
      value
      & opt (some int) None
      & info [ "ledger-max-bytes" ] ~docv:"BYTES"
          ~doc:
            "Rotate the --ledger file before an append would push it past \
             $(docv) bytes: the live file is renamed to FILE.1 (FILE.1 to \
             FILE.2, ...) and segments beyond --ledger-keep are deleted. \
             Readers ($(b,urs query), $(b,urs report --ledger), \
             $(b,urs trace grep)) merge every surviving segment \
             oldest-first. Without the flag the ledger grows unbounded.")
  in
  let ledger_keep =
    Arg.(
      value & opt int 3
      & info [ "ledger-keep" ] ~docv:"K"
          ~doc:
            "Rotated segments to retain alongside the live ledger file \
             (default 3; at most $(docv)+1 files ever exist). Only \
             meaningful with --ledger-max-bytes.")
  in
  let ledger_flush_every =
    Arg.(
      value & opt int 1
      & info [ "ledger-flush-every" ] ~docv:"N"
          ~doc:
            "Buffer up to $(docv) ledger records between flushes (default \
             1: every record is flushed as it is written). Larger values \
             batch the write path under heavy append load; the buffer is \
             always flushed at rotation and at exit, so at most $(docv)-1 \
             records are at risk in a crash.")
  in
  let serve =
    Arg.(
      value
      & opt (some int) None
      & info [ "serve-metrics" ] ~docv:"PORT"
          ~doc:
            "While the command runs, serve live /metrics, /healthz, /runs, \
             /timeline, /progress, /runtime and /convergence on \
             127.0.0.1:$(docv) (0 picks an ephemeral port). Point \
             $(b,urs watch) at the port for a terminal progress view.")
  in
  let jobs =
    let env =
      Cmd.Env.info "URS_JOBS" ~doc:"Default for the $(b,--jobs) option."
    in
    Arg.(
      value & opt int 1
      & info [ "j"; "jobs" ] ~env ~docv:"N"
          ~doc:
            "Evaluate independent work (sweep points, simulation \
             replications, doctor grid models) on $(docv) domains. The \
             default 1 runs everything inline on the calling thread; \
             results are identical whatever the value.")
  in
  let profile_gc =
    Arg.(
      value & flag
      & info [ "profile-gc" ]
          ~doc:
            "Arm the runtime (GC/allocation) probes: spans and pool tasks \
             record their Gc.quick_stat deltas, and — on runtimes with \
             eventring support — GC pauses are counted in urs_runtime_gc_* \
             metrics and merged, with allocation counters, into \
             $(b,--trace-format perfetto) traces as GC slices and counter \
             tracks. Off by default (zero overhead).")
  in
  let make verbose metrics format trace trace_format ledger ledger_max_bytes
      ledger_keep ledger_flush_every serve jobs profile_gc =
    setup_logs (List.length verbose);
    if jobs < 1 then
      Format.eprintf "urs: ignoring --jobs %d (must be >= 1)@." jobs;
    { metrics; format; trace; trace_format; ledger; ledger_max_bytes;
      ledger_keep; ledger_flush_every; serve; jobs = max 1 jobs; profile_gc }
  in
  Term.(
    const make $ verbose $ metrics $ format $ trace $ trace_format $ ledger
    $ ledger_max_bytes $ ledger_keep $ ledger_flush_every $ serve $ jobs
    $ profile_gc)

(* ---- streaming ledger reads ----

   Every user-facing ledger scan goes through Ledger.fold_path: rotated
   segments are merged oldest-first and a torn tail (a crashed or
   still-running writer's partial last line) is skipped and counted
   rather than fatal. *)

let warn_ledger_stats cmd (stats : Urs_obs.Ledger.fold_stats) =
  if stats.Urs_obs.Ledger.malformed > 0 then
    Format.eprintf "urs %s: skipped %d malformed ledger line(s) (torn tail?)@."
      cmd stats.Urs_obs.Ledger.malformed

let read_ledger_records ?filter cmd path =
  let keep =
    match filter with None -> fun _ -> true | Some f -> f
  in
  match
    Urs_obs.Ledger.fold_path path ~init:[] ~f:(fun acc r ->
        if keep r then r :: acc else acc)
  with
  | Error msg -> Error msg
  | Ok (rev, stats) ->
      warn_ledger_stats cmd stats;
      Ok (List.rev rev)

(* ---- shared argument parsing ---- *)

let dist_conv =
  (* "exp:RATE" | "h2:W1,R1,R2" | "det:VALUE" | "erlang:K,RATE", parsed
     as in POST /solve *)
  let parse s =
    Result.map_error (fun msg -> `Msg msg) (Urs.Solve_service.dist_of_string s)
  in
  Arg.conv (parse, Urs_prob.Distribution.pp)

let servers =
  Arg.(value & opt int 10 & info [ "N"; "servers" ] ~doc:"Number of servers.")

let lambda =
  Arg.(value & opt float 8.0 & info [ "lambda" ] ~doc:"Poisson arrival rate.")

let mu =
  Arg.(value & opt float 1.0 & info [ "mu" ] ~doc:"Exponential service rate.")

let operative =
  Arg.(
    value
    & opt dist_conv Urs.Model.paper_operative
    & info [ "operative" ]
        ~doc:
          "Operative-period distribution (exp:R | h2:W,R1,R2 | det:V | \
           erlang:K,R). Default: the paper's fitted H2.")

let inoperative =
  Arg.(
    value
    & opt dist_conv Urs.Model.paper_inoperative_exp
    & info [ "inoperative" ]
        ~doc:"Inoperative-period distribution. Default: exp(25).")

let repair_crews =
  Arg.(
    value
    & opt (some int) None
    & info [ "repair-crews" ]
        ~doc:"Bound on simultaneous repairs (default: unlimited).")

let make_model ?repair_crews servers lambda mu operative inoperative =
  Urs.Model.create ?repair_crews ~servers ~arrival_rate:lambda
    ~service_rate:mu ~operative ~inoperative ()

(* ---- solve ---- *)

let strategy_conv =
  let parse s =
    match Urs.Solver.strategy_of_label s with
    | Some strategy -> Ok strategy
    | None -> Error (`Msg (Printf.sprintf "unknown method %S" s))
  in
  let print ppf v = Format.pp_print_string ppf (Urs.Solver.strategy_label v) in
  Arg.conv (parse, print)

let solve_cmd =
  let run obs servers lambda mu operative inoperative crews strategy =
    with_obs obs @@ fun pool ->
    let m = make_model ?repair_crews:crews servers lambda mu operative inoperative in
    Format.printf "%a@.@." Urs.Model.pp m;
    Format.printf "stability: %a@.@." Urs_mmq.Stability.pp_verdict
      (Urs.Model.stability m);
    match Urs.Solver.evaluate ?pool ~strategy m with
    | Ok p ->
        Format.printf "%a@." Urs.Solver.pp_performance p;
        `Ok ()
    | Error e -> `Error (false, Format.asprintf "%a" Urs.Solver.pp_error e)
  in
  let meth =
    Arg.(
      value & opt strategy_conv Urs.Solver.Exact
      & info [ "method" ] ~doc:"Solution method: exact | approx | mg | sim.")
  in
  Cmd.v
    (Cmd.info "solve" ~doc:"Evaluate a model (mean queue, response time).")
    Term.(
      ret
        (const run $ obs_t $ servers $ lambda $ mu $ operative $ inoperative
       $ repair_crews $ meth))

(* ---- stability ---- *)

let stability_cmd =
  let run obs servers lambda mu operative inoperative =
    with_obs obs @@ fun _pool ->
    let m = make_model servers lambda mu operative inoperative in
    Format.printf "%a@." Urs_mmq.Stability.pp_verdict (Urs.Model.stability m)
  in
  Cmd.v
    (Cmd.info "stability" ~doc:"Check the ergodicity condition (eq. 11).")
    Term.(const run $ obs_t $ servers $ lambda $ mu $ operative $ inoperative)

(* ---- optimize ---- *)

let optimize_cmd =
  let run obs servers lambda mu operative inoperative holding server_cost =
    with_obs obs @@ fun _pool ->
    let m = make_model servers lambda mu operative inoperative in
    let params = { Urs.Cost.holding; server = server_cost } in
    match Urs.Cost.optimal_servers m params with
    | Ok (n, c) ->
        Format.printf "optimal servers: %d (cost %.4f)@." n c;
        `Ok ()
    | Error e -> `Error (false, Format.asprintf "%a" Urs.Solver.pp_error e)
  in
  let holding =
    Arg.(value & opt float 4.0 & info [ "c1"; "holding" ] ~doc:"Holding cost c1.")
  in
  let server_cost =
    Arg.(value & opt float 1.0 & info [ "c2"; "server-cost" ] ~doc:"Server cost c2.")
  in
  Cmd.v
    (Cmd.info "optimize" ~doc:"Find the cost-optimal number of servers (eq. 22).")
    Term.(
      ret
        (const run $ obs_t $ servers $ lambda $ mu $ operative $ inoperative
       $ holding $ server_cost))

(* ---- capacity ---- *)

let capacity_cmd =
  let run obs lambda mu operative inoperative target =
    with_obs obs @@ fun _pool ->
    let m = make_model 1 lambda mu operative inoperative in
    match Urs.Capacity.min_servers_for_response m ~target with
    | Ok (n, perf) ->
        Format.printf "minimum servers for W <= %g: %d (achieves W = %.4f)@."
          target n perf.Urs.Solver.mean_response;
        `Ok ()
    | Error e -> `Error (false, Format.asprintf "%a" Urs.Solver.pp_error e)
  in
  let target =
    Arg.(value & opt float 1.5 & info [ "target" ] ~doc:"Response-time target.")
  in
  Cmd.v
    (Cmd.info "capacity" ~doc:"Minimum servers for a response-time target.")
    Term.(
      ret (const run $ obs_t $ lambda $ mu $ operative $ inoperative $ target))

(* ---- simulate ---- *)

let simulate_cmd =
  let run obs servers lambda mu operative inoperative crews duration
      replications seed =
    with_obs obs @@ fun pool ->
    let cfg =
      { Urs_sim.Server_farm.servers; lambda; mu; operative; inoperative;
        repair_crews = crews }
    in
    let s = Urs_sim.Replicate.run ?pool ~seed ~replications ~duration cfg in
    Format.printf "%a@." Urs_sim.Replicate.pp_summary s
  in
  let duration =
    Arg.(
      value & opt float 100_000.0
      & info [ "duration" ] ~doc:"Measured time units per replication.")
  in
  let replications =
    Arg.(value & opt int 5 & info [ "replications" ] ~doc:"Independent replications.")
  in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Random seed.") in
  Cmd.v
    (Cmd.info "simulate" ~doc:"Discrete-event simulation of the model.")
    Term.(
      const run $ obs_t $ servers $ lambda $ mu $ operative $ inoperative
      $ repair_crews $ duration $ replications $ seed)

(* ---- metrics ---- *)

let metrics_cmd =
  let run obs servers lambda mu operative inoperative crews duration
      replications seed =
    (* this subcommand exists to dump the registry, so default to stdout *)
    let obs =
      match obs.metrics with
      | None -> { obs with metrics = Some "-" }
      | Some _ -> obs
    in
    with_obs obs @@ fun pool ->
    let m =
      make_model ?repair_crews:crews servers lambda mu operative inoperative
    in
    List.iter
      (fun strategy ->
        match Urs.Solver.evaluate ?pool ~strategy m with
        | Ok _ -> ()
        | Error e ->
            Logs.warn (fun f ->
                f "%s strategy failed: %a"
                  (Urs.Solver.strategy_name strategy)
                  Urs.Solver.pp_error e))
      [ Urs.Solver.Exact; Urs.Solver.Approximate; Urs.Solver.Matrix_geometric;
        Urs.Solver.Simulation { duration; replications; seed } ]
  in
  let duration =
    Arg.(
      value & opt float 5_000.0
      & info [ "duration" ]
          ~doc:"Simulated time units per replication (kept short by default).")
  in
  let replications =
    Arg.(value & opt int 2 & info [ "replications" ] ~doc:"Independent replications.")
  in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Random seed.") in
  Cmd.v
    (Cmd.info "metrics"
       ~doc:
         "Exercise every solver strategy once on the model and dump the \
          metrics registry (Prometheus text to stdout unless --metrics / \
          --metrics-format say otherwise).")
    Term.(
      const run $ obs_t $ servers $ lambda $ mu $ operative $ inoperative
      $ repair_crews $ duration $ replications $ seed)

(* ---- sweep ---- *)

let sweep_cmd =
  let run obs servers lambda mu operative inoperative crews axis strategy
      values range pinned_rate no_cache =
    with_obs obs @@ fun pool ->
    let m =
      make_model ?repair_crews:crews servers lambda mu operative inoperative
    in
    let values =
      match (values, range) with
      | Some vs, None -> Ok vs
      | None, Some (lo, hi, steps) -> Ok (Urs.Sweep.linspace lo hi steps)
      | None, None -> Error "one of --values or --range is required"
      | Some _, Some _ -> Error "--values and --range are mutually exclusive"
    in
    match values with
    | Error msg -> `Error (true, msg)
    | Ok values ->
        let cache = if no_cache then None else Some (Urs.Solve_cache.create ()) in
        let axis_name, points =
          match axis with
          | `Servers ->
              let ints =
                List.map (fun v -> int_of_float (Float.round v)) values
              in
              ( "servers",
                List.map
                  (fun (n, p) -> (float_of_int n, p))
                  (Urs.Sweep.over_servers ~strategy ?pool ?cache m ~values:ints)
              )
          | `Lambda ->
              ( "lambda",
                Urs.Sweep.over_arrival_rates ~strategy ?pool ?cache m ~values )
          | `Repair ->
              ( "repair",
                Urs.Sweep.over_repair_times ~strategy ?pool ?cache m ~values )
          | `Scv ->
              ( "scv",
                Urs.Sweep.over_operative_scv ~strategy ?pool ?cache m
                  ~pinned_rate ~values )
          | `Load ->
              ("load", Urs.Sweep.over_loads ~strategy ?pool ?cache m ~values)
        in
        Format.printf "# axis=%s method=%s points=%d@." axis_name
          (Urs.Solver.strategy_label strategy)
          (List.length points);
        Format.printf "# x mean_jobs mean_response utilization@.";
        List.iter
          (fun (x, p) ->
            Format.printf "%.12g %.12g %.12g %.12g@." x p.Urs.Solver.mean_jobs
              p.Urs.Solver.mean_response p.Urs.Solver.utilization)
          points;
        `Ok ()
  in
  let axis =
    let axis_conv =
      Arg.enum
        [ ("servers", `Servers); ("lambda", `Lambda); ("repair", `Repair);
          ("scv", `Scv); ("load", `Load) ]
    in
    Arg.(
      required
      & pos 0 (some axis_conv) None
      & info [] ~docv:"AXIS"
          ~doc:
            "What to sweep: $(b,servers) (number of servers), $(b,lambda) \
             (arrival rate), $(b,repair) (mean repair time, Figure 7), \
             $(b,scv) (operative-period SCV, Figure 6) or $(b,load) \
             (offered load relative to effective capacity, Figure 8).")
  in
  let meth =
    Arg.(
      value & opt strategy_conv Urs.Solver.Exact
      & info [ "method" ] ~doc:"Solution method: exact | approx | mg | sim.")
  in
  let values =
    let values_conv = Arg.(list ~sep:',' float) in
    Arg.(
      value
      & opt (some values_conv) None
      & info [ "values" ] ~docv:"V1,V2,..."
          ~doc:"Explicit x-axis values (comma-separated).")
  in
  let range =
    let range_conv = Arg.(t3 ~sep:':' float float int) in
    Arg.(
      value
      & opt (some range_conv) None
      & info [ "range" ] ~docv:"LO:HI:STEPS"
          ~doc:"Evenly spaced x-axis values, e.g. $(b,0.1:0.9:17).")
  in
  let pinned_rate =
    Arg.(
      value & opt float 0.1663
      & info [ "pinned-rate" ]
          ~doc:
            "For the $(b,scv) axis: the pinned H2 branch rate of the \
             moment fit (default: the paper's 0.1663).")
  in
  let no_cache =
    Arg.(
      value & flag
      & info [ "no-cache" ]
          ~doc:
            "Disable the content-addressed solve cache (enabled by default; \
             repeated (model, method) points are solved once).")
  in
  Cmd.v
    (Cmd.info "sweep"
       ~doc:
         "Sweep one model parameter and print one line per point (x, mean \
          jobs, mean response time, utilization). Points run on --jobs \
          domains; the output is byte-identical whatever the job count.")
    Term.(
      ret
        (const run $ obs_t $ servers $ lambda $ mu $ operative $ inoperative
       $ repair_crews $ axis $ meth $ values $ range $ pinned_rate $ no_cache))

(* ---- dataset ---- *)

let dataset_cmd =
  let run obs rows out seed =
    with_obs obs @@ fun _pool ->
    let cfg = { Urs_dataset.Generate.default with Urs_dataset.Generate.rows; seed } in
    let events = Urs_dataset.Generate.generate cfg in
    (match out with
    | Some path ->
        Urs_dataset.Csv.write path events;
        Format.printf "wrote %d rows to %s@." rows path
    | None -> print_string (Urs_dataset.Csv.to_string events))
  in
  let rows =
    Arg.(value & opt int 140_000 & info [ "rows" ] ~doc:"Number of event rows.")
  in
  let out =
    Arg.(
      value & opt (some string) None
      & info [ "o"; "output" ] ~doc:"Output CSV path (default: stdout).")
  in
  let seed = Arg.(value & opt int 2006 & info [ "seed" ] ~doc:"Random seed.") in
  Cmd.v
    (Cmd.info "dataset" ~doc:"Generate a synthetic breakdown log (CSV).")
    Term.(const run $ obs_t $ rows $ out $ seed)

(* ---- fit ---- *)

let fit_cmd =
  let run obs path significance hist_out =
    with_obs obs @@ fun _pool ->
    let events = Urs_dataset.Csv.read path in
    match Urs_dataset.Pipeline.analyze ~significance events with
    | Ok report ->
        Format.printf "%a@." Urs_dataset.Pipeline.pp_report report;
        (match hist_out with
        | None -> ()
        | Some out ->
            let body =
              Urs_obs.Export.stats_histogram
                ~help:"Binned operative-period sample from the fit pipeline"
                ~name:"urs_fit_operative_period"
                report.Urs_dataset.Pipeline.operative
                  .Urs_dataset.Pipeline.histogram
              ^ Urs_obs.Export.stats_histogram
                  ~help:"Binned inoperative-period sample from the fit pipeline"
                  ~name:"urs_fit_inoperative_period"
                  report.Urs_dataset.Pipeline.inoperative
                    .Urs_dataset.Pipeline.histogram
            in
            write_output out body);
        `Ok ()
    | Error e -> `Error (false, Format.asprintf "%a" Urs_prob.Fit.pp_error e)
  in
  let path =
    Arg.(
      required & pos 0 (some file) None
      & info [] ~docv:"LOG.csv" ~doc:"Breakdown event log (CSV).")
  in
  let significance =
    Arg.(value & opt float 0.05 & info [ "significance" ] ~doc:"KS significance level.")
  in
  let hist_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "histogram-metrics" ] ~docv:"FILE"
          ~doc:
            "Also write the operative/inoperative period histograms as \
             Prometheus histogram exposition (_bucket/_sum/_count) to \
             $(docv) ('-' for stdout).")
  in
  Cmd.v
    (Cmd.info "fit"
       ~doc:"Run the Section-2 pipeline on an event log: clean, fit, KS-test.")
    Term.(ret (const run $ obs_t $ path $ significance $ hist_out))

(* ---- doctor ---- *)

let doctor_cmd =
  let run obs quick =
    with_obs obs @@ fun pool ->
    let report = Urs.Doctor.run ~quick ?pool () in
    Format.printf "%a@." Urs.Doctor.pp_report report;
    match Urs.Doctor.verdict report with
    | Urs_mmq.Diagnostics.Suspect _ ->
        `Error (false, "numerical health checks came back SUSPECT")
    | _ -> `Ok ()
  in
  let quick =
    Arg.(
      value & flag
      & info [ "quick" ]
          ~doc:"Single model, short simulation — a CI-friendly smoke check.")
  in
  Cmd.v
    (Cmd.info "doctor"
       ~doc:
         "Numerical self-diagnosis: cross-check the exact, matrix-geometric, \
          approximate and simulation methods on paper models and score \
          residuals, conditioning and confidence intervals. Exits nonzero \
          only on a SUSPECT verdict.")
    Term.(ret (const run $ obs_t $ quick))

(* ---- inspect ---- *)

let inspect_cmd =
  let str_field kvs k =
    match List.assoc_opt k kvs with
    | Some (Urs_obs.Json.String s) -> s
    | Some j -> Urs_obs.Json.to_string j
    | None -> "-"
  in
  let render_traces format (traces : Urs_obs.Convergence.trace list) =
    match format with
    | `Json ->
        print_string
          (Urs_obs.Json.to_string
             (Urs_obs.Json.Obj
                [
                  ( "traces",
                    Urs_obs.Json.List
                      (List.map Urs_obs.Convergence.trace_to_json traces) );
                ]));
        print_newline ()
    | `Table ->
        List.iter
          (fun (tr : Urs_obs.Convergence.trace) ->
            Format.printf "%a@." Urs_obs.Convergence.pp_trace tr;
            if tr.Urs_obs.Convergence.dropped > 0 then
              Format.printf "  (first %d iterations dropped by the ring)@."
                tr.Urs_obs.Convergence.dropped;
            Format.printf "  %6s  %12s  %12s  %7s@." "iter" "residual"
              "shift" "active";
            Array.iter
              (fun (s : Urs_obs.Convergence.sample) ->
                Format.printf "  %6d  %12.5e  %12.5e  %7d%s@."
                  s.Urs_obs.Convergence.iteration s.Urs_obs.Convergence.residual
                  s.Urs_obs.Convergence.shift s.Urs_obs.Convergence.active
                  (if s.Urs_obs.Convergence.deflation then "  deflate" else ""))
              tr.Urs_obs.Convergence.samples;
            Format.printf "@.")
          traces
    | `Data ->
        (* gnuplot-ready: one dataset per trace, two blank lines between
           (plot 'f' index 0 using 1:2 with lines) *)
        List.iteri
          (fun i (tr : Urs_obs.Convergence.trace) ->
            if i > 0 then Format.printf "@.@.";
            Format.printf "# trace %d solver=%s label=%S iterations=%d converged=%b@."
              tr.Urs_obs.Convergence.seq tr.Urs_obs.Convergence.solver
              tr.Urs_obs.Convergence.label tr.Urs_obs.Convergence.iterations
              tr.Urs_obs.Convergence.converged;
            Format.printf "# iter residual shift active deflation@.";
            Array.iter
              (fun (s : Urs_obs.Convergence.sample) ->
                Format.printf "%d %.12g %.12g %d %d@."
                  s.Urs_obs.Convergence.iteration s.Urs_obs.Convergence.residual
                  s.Urs_obs.Convergence.shift s.Urs_obs.Convergence.active
                  (if s.Urs_obs.Convergence.deflation then 1 else 0))
              tr.Urs_obs.Convergence.samples)
          traces
  in
  let run obs servers lambda mu operative inoperative crews solver_filter
      max_iter ledger_path format =
    with_obs obs @@ fun _pool ->
    match ledger_path with
    | Some path -> (
        (* summaries only: the ledger carries the per-trace digest, not
           the per-iteration samples *)
        match
          read_ledger_records "inspect" path
            ~filter:(fun (r : Urs_obs.Ledger.record) ->
              r.Urs_obs.Ledger.kind = "convergence"
              && match solver_filter with
                 | None -> true
                 | Some s -> str_field r.Urs_obs.Ledger.params "solver" = s)
        with
        | Error msg -> `Error (false, "cannot read ledger: " ^ msg)
        | Ok records ->
            if records = [] then
              `Error (false, path ^ ": no convergence records")
            else begin
              (match format with
              | `Json ->
                  print_string
                    (Urs_obs.Json.to_string
                       (Urs_obs.Json.List
                          (List.map Urs_obs.Ledger.to_json records)));
                  print_newline ()
              | `Table | `Data ->
                  Format.printf "# seq solver label outcome iterations \
                                 residual_first residual_last wall_ms@.";
                  List.iter
                    (fun (r : Urs_obs.Ledger.record) ->
                      Format.printf "%d %s %S %s %s %s %s %.3f@."
                        r.Urs_obs.Ledger.seq
                        (str_field r.Urs_obs.Ledger.params "solver")
                        (str_field r.Urs_obs.Ledger.params "label")
                        r.Urs_obs.Ledger.outcome
                        (str_field r.Urs_obs.Ledger.summary "iterations")
                        (str_field r.Urs_obs.Ledger.summary "residual_first")
                        (str_field r.Urs_obs.Ledger.summary "residual_last")
                        (r.Urs_obs.Ledger.wall_seconds *. 1e3))
                    records);
              `Ok ()
            end)
    | None -> (
        let m =
          make_model ?repair_crews:crews servers lambda mu operative
            inoperative
        in
        match Urs.Model.qbd m with
        | None ->
            `Error
              (false, "model is not phase-type; no iterative solve to inspect")
        | Some q ->
            let (), traces =
              Urs_obs.Convergence.with_recording (fun () ->
                  (match Urs_mmq.Spectral.solve ?max_iter q with
                  | Ok _ | Error _ -> ());
                  (match Urs_mmq.Matrix_geometric.solve q with
                  | Ok _ | Error _ -> ());
                  match Urs_mmq.Geometric.solve q with Ok _ | Error _ -> ())
            in
            let traces =
              List.filter
                (fun (tr : Urs_obs.Convergence.trace) ->
                  match solver_filter with
                  | None -> true
                  | Some s -> tr.Urs_obs.Convergence.solver = s)
                traces
            in
            if traces = [] then `Error (false, "no convergence traces recorded")
            else begin
              render_traces format traces;
              `Ok ()
            end)
  in
  let solver_filter =
    Arg.(
      value
      & opt (some string) None
      & info [ "solver" ] ~docv:"NAME"
          ~doc:
            "Only show traces from this solver ($(b,qr), $(b,mg_r), \
             $(b,brent), $(b,uniformization)).")
  in
  let max_iter =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-iter" ] ~docv:"N"
          ~doc:
            "Lower the QR/QL sweep budget (per eigenvalue) of the live \
             spectral solve (default 100) — e.g. $(b,--max-iter 2) to \
             watch a forced stall.")
  in
  let ledger_path =
    Arg.(
      value
      & opt (some string) None
      & info [ "from-ledger" ] ~docv:"FILE"
          ~doc:
            "Instead of solving live, list the 'convergence' records of \
             this run-ledger JSONL (per-trace digests; the per-iteration \
             samples exist only in live mode).")
  in
  let format =
    Arg.(
      value
      & opt (enum [ ("table", `Table); ("json", `Json); ("data", `Data) ])
          `Table
      & info [ "format" ]
          ~doc:
            "Output format: $(b,table) (per-iteration rows under a \
             per-trace header), $(b,json), or $(b,data) (gnuplot-ready \
             columns, one dataset per trace).")
  in
  Cmd.v
    (Cmd.info "inspect"
       ~doc:
         "Record and display iteration-level convergence telemetry: solve \
          the model with every iterative method (spectral QR, \
          matrix-geometric R fixed point, Brent root refinement) and show \
          each trace's per-iteration residuals — or digest the \
          'convergence' records of an existing ledger.")
    Term.(
      ret
        (const run $ obs_t $ servers $ lambda $ mu $ operative $ inoperative
       $ repair_crews $ solver_filter $ max_iter $ ledger_path $ format))

(* ---- serve ---- *)

let default_objectives = [ "p99 < 250ms"; "error_rate < 1%" ]

let parse_objectives specs =
  let specs = if specs = [] then default_objectives else specs in
  List.fold_left
    (fun acc spec ->
      match (acc, Urs_obs.Slo.parse_objective spec) with
      | Error _, _ -> acc
      | Ok os, Ok o -> Ok (os @ [ o ])
      | Ok _, Error msg -> Error msg)
    (Ok []) specs

let serve_cmd =
  let run obs port objectives solve_max_iter =
    match parse_objectives objectives with
    | Error msg -> `Error (false, "--objective: " ^ msg)
    | Ok objectives ->
        with_obs obs @@ fun pool ->
        Urs_obs.Ledger.set_memory true;
        (* the doctor's convergence stage fills /convergence at startup and
           any later solve keeps appending traces *)
        Urs_obs.Convergence.set_recording true;
        Format.printf "urs: running quick doctor self-check...@.";
        let report = Urs.Doctor.run ~quick:true ?pool () in
        Format.printf "%a@." Urs.Doctor.pp_report report;
        (* the SLO engine baselines after the self-check, so the doctor's
           own traffic is never charged against the serving budget *)
        let slo = Urs_obs.Slo.create objectives in
        let cache = Urs.Solve_cache.create () in
        let routes =
          standard_routes @ [ ("/slo", Urs_obs.Routes.slo_response slo) ]
        in
        let post_routes =
          [ Urs.Solve_service.post_route ?pool ~cache ?max_iter:solve_max_iter () ]
        in
        (match solve_max_iter with
        | Some n ->
            Format.printf
              "urs: FAULT DRILL — /solve capped at %d spectral iterations \
               (expect 500s and an SLO breach)@."
              n
        | None -> ());
        let server =
          Urs_obs.Http.start ~port ~routes ~post_routes ()
        in
        Format.printf
          "urs: serving http://127.0.0.1:%d (/metrics /healthz /runs \
           /timeline /progress /runtime /convergence /slo, POST /solve) — \
           Ctrl-C to stop@."
          (Urs_obs.Http.port server);
        (* SIGTERM / Ctrl-C kick the accept loop instead of killing the
           process, so the unwind reaches with_obs's cleanup and the
           ledger's batched tail (--ledger-flush-every) is flushed and
           closed. Http.shutdown never joins: the handler may run on
           the server thread itself. The foreground wait polls a flag
           rather than joining — a thread parked in pthread_join never
           reaches a safepoint, so a handler could otherwise starve. *)
        let stopping = ref false in
        let quit _ =
          stopping := true;
          Urs_obs.Http.shutdown server
        in
        Sys.set_signal Sys.sigterm (Sys.Signal_handle quit);
        Sys.set_signal Sys.sigint (Sys.Signal_handle quit);
        while not !stopping do
          Unix.sleepf 0.2
        done;
        Urs_obs.Http.stop server;
        Format.printf "urs: shutting down@.";
        `Ok ()
  in
  let port =
    Arg.(
      value & opt int 9090
      & info [ "p"; "port" ] ~doc:"Listen port (0 picks an ephemeral port).")
  in
  let objectives =
    Arg.(
      value & opt_all string []
      & info [ "objective" ] ~docv:"SPEC"
          ~doc:
            "Service-level objective (repeatable): $(b,p99 < 250ms), \
             $(b,error_rate < 1%), optionally named \
             ($(b,api: p99.9 < 2s)) or bound to a metric \
             ($(b,p99(urs_http_request_seconds) < 50ms)). Defaults: \
             p99 < 250ms and error_rate < 1% over the serving metrics. \
             Evaluated with 5m/1h burn-rate windows on every /slo \
             request and exported as urs_slo_burn_rate gauges.")
  in
  let solve_max_iter =
    Arg.(
      value
      & opt (some int) None
      & info [ "solve-max-iter" ] ~docv:"N"
          ~doc:
            "Fault drill: cap the spectral solver behind POST /solve at \
             $(docv) iterations, so solves fail with 500s and burn the \
             error-rate SLO. Capped results bypass the solve cache. For \
             testing alerting pipelines; never useful in production.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run a quick doctor self-check, then serve /metrics (Prometheus, \
          with interpolated quantiles), /healthz (doctor verdict; 503 when \
          suspect), /runs (recent ledger records, JSON), /timeline (bounded \
          time-series recorders, JSON), /progress (task completion and \
          ETA, JSON), /runtime (GC probe status, JSON), /convergence \
          (recent iteration traces, JSON), /slo (burn-rate evaluation, \
          JSON) and POST /solve (JSON model in, stationary metrics out) \
          over HTTP until interrupted.")
    Term.(ret (const run $ obs_t $ port $ objectives $ solve_max_iter))

(* ---- loadgen ---- *)

let loadgen_cmd =
  let run obs port addr target duration mode workers think rate body solve
      timeout_s seed out compare probes =
    with_obs obs @@ fun _pool ->
    let mode =
      match mode with
      | `Closed -> Urs.Loadgen.Closed { workers; think_s = think }
      | `Open -> Urs.Loadgen.Open { rate; workers }
    in
    (* --solve targets POST /solve with a paper-scenario body unless an
       explicit --body overrides it; a bare --body also implies POST *)
    let target = if solve then "/solve" else target in
    let body =
      if solve && body = None then Some {|{"scenario":"paper"}|} else body
    in
    let meth = if body <> None then "POST" else "GET" in
    match
      Urs.Loadgen.run ~addr ~timeout_s ~seed ~meth ?body ~port ~target
        ~duration_s:duration ~mode ()
    with
    | exception Invalid_argument msg -> `Error (false, msg)
    | result ->
        let r = result in
        Format.printf "target:      %s %s (%s loop)@." meth r.Urs.Loadgen.target
          (Urs.Loadgen.mode_label r.Urs.Loadgen.mode);
        Format.printf "requests:    %d in %.1fs (%.1f req/s)@."
          r.Urs.Loadgen.requests r.Urs.Loadgen.wall_s
          r.Urs.Loadgen.throughput;
        Format.printf "errors:      %d non-2xx, %d timeouts@."
          r.Urs.Loadgen.errors r.Urs.Loadgen.timeouts;
        List.iter
          (fun (code, n) -> Format.printf "  %d: %d@." code n)
          r.Urs.Loadgen.codes;
        Format.printf
          "latency:     mean %.3gms  p50 %.3gms  p90 %.3gms  p99 %.3gms  \
           max %.3gms@."
          (1e3 *. r.Urs.Loadgen.mean_s)
          (1e3 *. r.Urs.Loadgen.p50_s)
          (1e3 *. r.Urs.Loadgen.p90_s)
          (1e3 *. r.Urs.Loadgen.p99_s)
          (1e3 *. r.Urs.Loadgen.max_s);
        let comparison =
          if not compare then Ok None
          else
            match
              Urs.Loadgen.compare_model ~probes ~addr ~timeout_s ~meth ?body
                ~port ~target result
            with
            | Error msg -> Error msg
            | Ok c ->
                Format.printf
                  "model:       mu_hat %.1f/s (from %d probes), lambda %.1f/s@."
                  c.Urs.Loadgen.mu_hat c.Urs.Loadgen.probes
                  c.Urs.Loadgen.lambda;
                (if Float.is_nan c.Urs.Loadgen.predicted_response_s then
                   Format.printf
                     "model:       measured load at or above fitted capacity \
                      — M/M/1 predicts divergence@."
                 else
                   let p = c.Urs.Loadgen.predicted_response_s in
                   let m = c.Urs.Loadgen.measured_response_s in
                   Format.printf
                     "response:    predicted %.3gms vs measured %.3gms \
                      (ratio %.2f)@."
                     (1e3 *. p) (1e3 *. m) (m /. p));
                Ok (Some c)
        in
        (match out with
        | None -> ()
        | Some path ->
            let doc =
              Urs_obs.Json.Obj
                ([ ("result", Urs.Loadgen.result_json result) ]
                @
                match comparison with
                | Ok (Some c) ->
                    [ ("comparison", Urs.Loadgen.comparison_json c) ]
                | _ -> [])
            in
            let oc = open_out path in
            Urs_obs.Json.to_channel oc doc;
            close_out oc);
        (match comparison with
        | Error msg -> `Error (false, "--compare-model: " ^ msg)
        | Ok _ -> `Ok ())
  in
  let port =
    Arg.(
      required
      & opt (some int) None
      & info [ "p"; "port" ] ~docv:"PORT"
          ~doc:"Port of the target server on $(b,--addr).")
  in
  let addr =
    Arg.(
      value & opt string "127.0.0.1"
      & info [ "addr" ] ~docv:"ADDR" ~doc:"Target address.")
  in
  let target =
    Arg.(
      value & opt string "/healthz"
      & info [ "target" ] ~docv:"PATH" ~doc:"Request path (with query).")
  in
  let duration =
    Arg.(
      value & opt float 10.0
      & info [ "duration" ] ~docv:"SECONDS"
          ~doc:"How long to generate traffic (default 10s).")
  in
  let mode =
    let mode_conv = Arg.enum [ ("closed", `Closed); ("open", `Open) ] in
    Arg.(
      value & opt mode_conv `Closed
      & info [ "mode" ] ~docv:"MODE"
          ~doc:
            "$(b,closed): N workers cycling request/think — offered load \
             adapts to the server. $(b,open): Poisson arrivals at \
             $(b,--rate), latency measured from the scheduled arrival \
             (no coordinated omission).")
  in
  let workers =
    Arg.(
      value & opt int 4
      & info [ "workers" ] ~docv:"N"
          ~doc:"Concurrent client threads (default 4).")
  in
  let think =
    Arg.(
      value & opt float 0.0
      & info [ "think" ] ~docv:"SECONDS"
          ~doc:"Closed-loop think time between requests (default 0).")
  in
  let rate =
    Arg.(
      value & opt float 20.0
      & info [ "rate" ] ~docv:"PER_SECOND"
          ~doc:"Open-loop Poisson arrival rate (default 20/s).")
  in
  let body =
    Arg.(
      value
      & opt (some string) None
      & info [ "body" ] ~docv:"JSON"
          ~doc:"POST this body instead of issuing GETs.")
  in
  let solve =
    Arg.(
      value & flag
      & info [ "solve" ]
          ~doc:
            "Shorthand: POST /solve with the paper scenario \
             ($(b,--body) overrides the payload).")
  in
  let timeout_s =
    Arg.(
      value & opt float 5.0
      & info [ "timeout" ] ~docv:"SECONDS"
          ~doc:"Per-request socket timeout (default 5s).")
  in
  let seed =
    Arg.(
      value & opt int 1
      & info [ "seed" ] ~doc:"Seed for the open-loop Poisson schedule.")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "out" ] ~docv:"FILE"
          ~doc:"Write the run result (and comparison) as JSON to $(docv).")
  in
  let compare =
    Arg.(
      value & flag
      & info [ "compare-model" ]
          ~doc:
            "After the run, fit the server's service rate from unloaded \
             probes and print the M/M/1-predicted response time at the \
             measured throughput next to the measured one — the paper's \
             measure/fit/predict loop with the serving process itself as \
             the system under study.")
  in
  let probes =
    Arg.(
      value & opt int 30
      & info [ "probes" ] ~docv:"N"
          ~doc:"Calibration probes for $(b,--compare-model) (default 30).")
  in
  Cmd.v
    (Cmd.info "loadgen"
       ~doc:
         "Generate HTTP traffic against a running urs serve — closed loop \
          (workers with think time) or open loop (Poisson arrivals; \
          latency from the scheduled arrival) — and report throughput, \
          error/timeout counts and interpolated latency quantiles. Every \
          run appends a 'loadgen' ledger record when $(b,--ledger) is \
          active.")
    Term.(
      ret
        (const run $ obs_t $ port $ addr $ target $ duration $ mode $ workers
       $ think $ rate $ body $ solve $ timeout_s $ seed $ out $ compare
       $ probes))

(* ---- slo ---- *)

let slo_check_cmd =
  let run port timeout_s =
    match Urs_obs.Http.get ~timeout_s ~port "/slo" with
    | Error msg ->
        `Error (false, Printf.sprintf "127.0.0.1:%d unreachable (%s)" port msg)
    | Ok (status, _) when status <> 200 ->
        `Error (false, Printf.sprintf "/slo returned %d" status)
    | Ok (_, body) -> (
        let open Urs_obs in
        match Json.of_string (String.trim body) with
        | Error msg -> `Error (false, "bad /slo JSON: " ^ msg)
        | Ok j -> (
            match Json.member "objectives" j with
            | Some (Json.List objectives) ->
                List.iter
                  (fun o ->
                    let str k =
                      Option.value ~default:"?"
                        (Option.bind (Json.member k o) Json.to_string_opt)
                    in
                    let num k =
                      Option.value ~default:nan
                        (Option.bind (Json.member k o) Json.to_float_opt)
                    in
                    let breached =
                      match Json.member "breached" o with
                      | Some (Json.Bool b) -> b
                      | _ -> false
                    in
                    let windows =
                      match Json.member "windows" o with
                      | Some (Json.List ws) ->
                          String.concat "  "
                            (List.map
                               (fun w ->
                                 let label =
                                   Option.value ~default:"?"
                                     (Option.bind (Json.member "window" w)
                                        Json.to_string_opt)
                                 in
                                 let burn =
                                   Option.value ~default:nan
                                     (Option.bind (Json.member "burn_rate" w)
                                        Json.to_float_opt)
                                 in
                                 Printf.sprintf "burn[%s]=%.3g" label burn)
                               ws)
                      | _ -> ""
                    in
                    Format.printf "[%-6s] %-24s %-22s current %.4g  %s@."
                      (if breached then "BREACH" else "ok")
                      (str "objective") (str "sli") (num "current") windows)
                  objectives;
                let breached =
                  match Json.member "breached" j with
                  | Some (Json.Bool b) -> b
                  | _ -> false
                in
                if breached then begin
                  Format.printf "urs slo: BREACHED@.";
                  exit 1
                end
                else begin
                  Format.printf "urs slo: all objectives within budget@.";
                  `Ok ()
                end
            | _ -> `Error (false, "/slo JSON missing objectives")))
  in
  let port =
    Arg.(
      required
      & opt (some int) None
      & info [ "p"; "port" ] ~docv:"PORT"
          ~doc:"Port of a running $(b,urs serve) on 127.0.0.1.")
  in
  let timeout_s =
    Arg.(
      value & opt float 5.0
      & info [ "timeout" ] ~docv:"SECONDS"
          ~doc:"Request timeout (default 5s).")
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Fetch /slo from a running urs serve, print every objective's \
          current value and per-window burn rates, and exit 1 if any \
          objective is breached (burning its error budget faster than \
          allowed in every window) — CI's gate on service health.")
    Term.(ret (const run $ port $ timeout_s))

let slo_cmd =
  Cmd.group
    (Cmd.info "slo"
       ~doc:
         "Service-level-objective tooling: $(b,urs slo check) evaluates a \
          running server's objectives and exits non-zero on breach.")
    [ slo_check_cmd ]

(* ---- watch ---- *)

let watch_cmd =
  let run port interval once =
    let open Urs_obs in
    (* one fetch-and-render pass; returns [Some true] when every listed
       task is finished (and at least one exists), [None] on a fetch or
       parse failure *)
    let render () =
      match Http.get ~port "/progress" with
      | Error msg ->
          Format.printf "urs watch: 127.0.0.1:%d unreachable (%s)@." port msg;
          None
      | Ok (status, _) when status <> 200 ->
          Format.printf "urs watch: /progress returned %d@." status;
          None
      | Ok (_, body) -> (
          match Json.of_string (String.trim body) with
          | Error msg ->
              Format.printf "urs watch: bad /progress JSON (%s)@." msg;
              None
          | Ok j -> (
              match Json.member "tasks" j with
              | Some (Json.List tasks) ->
                  if tasks = [] then
                    Format.printf "  (no tasks reported yet)@."
                  else
                    List.iter
                      (fun t ->
                        let str k = Option.bind (Json.member k t) Json.to_string_opt in
                        let num k = Option.bind (Json.member k t) Json.to_float_opt in
                        let name = Option.value (str "task") ~default:"?" in
                        let completed =
                          Option.value (num "completed") ~default:0.0
                        in
                        let progress =
                          match num "total" with
                          | Some total ->
                              Printf.sprintf "%.0f/%.0f" completed total
                          | None -> Printf.sprintf "%.0f" completed
                        in
                        let rate = Option.value (num "rate_per_s") ~default:0.0 in
                        let eta =
                          match num "eta_s" with
                          | Some e -> Printf.sprintf ", ETA %.1fs" e
                          | None -> ""
                        in
                        let finished =
                          match Json.member "finished" t with
                          | Some (Json.Bool true) -> "  [done]"
                          | _ -> ""
                        in
                        Format.printf "  %-24s %s (%.1f/s%s)%s@." name
                          progress rate eta finished)
                      tasks;
                  let all_done =
                    tasks <> []
                    && List.for_all
                         (fun t ->
                           match Json.member "finished" t with
                           | Some (Json.Bool b) -> b
                           | _ -> false)
                         tasks
                  in
                  Some all_done
              | _ ->
                  Format.printf "urs watch: /progress JSON missing tasks@.";
                  None))
    in
    (* latency quantiles from /metrics?format=json — the exporter
       synthesizes interpolated p50/p90/p99 per non-empty histogram;
       skipped silently when unreachable or not yet populated *)
    let render_quantiles () =
      match Http.get ~port "/metrics?format=json" with
      | Error _ | Ok (_, "") -> ()
      | Ok (status, _) when status <> 200 -> ()
      | Ok (_, body) -> (
          match Json.of_string (String.trim body) with
          | Error _ -> ()
          | Ok j -> (
              match Json.member "metrics" j with
              | Some (Json.List ms) ->
                  let rows =
                    List.filter_map
                      (fun m ->
                        match
                          (Json.member "name" m, Json.member "quantiles" m)
                        with
                        | Some (Json.String name), Some (Json.Obj qs)
                          when qs <> [] ->
                            let labels =
                              match Json.member "labels" m with
                              | Some (Json.Obj ls) ->
                                  Printf.sprintf "{%s}"
                                    (String.concat ","
                                       (List.filter_map
                                          (fun (k, v) ->
                                            Option.map
                                              (fun v -> k ^ "=" ^ v)
                                              (Json.to_string_opt v))
                                          ls))
                              | _ -> ""
                            in
                            let cells =
                              List.filter_map
                                (fun (q, v) ->
                                  match
                                    (float_of_string_opt q, Json.to_float_opt v)
                                  with
                                  | Some q, Some v ->
                                      Some
                                        (Printf.sprintf "p%g=%.3gms"
                                           (100. *. q) (1e3 *. v))
                                  | _ -> None)
                                qs
                            in
                            Some
                              (Printf.sprintf "  %-40s %s" (name ^ labels)
                                 (String.concat "  " cells))
                        | _ -> None)
                      ms
                  in
                  if rows <> [] then begin
                    Format.printf "  latency quantiles:@.";
                    List.iter (fun r -> Format.printf "  %s@." r) rows
                  end
              | _ -> ()))
    in
    let rec loop () =
      let finished = render () in
      if finished <> None then render_quantiles ();
      if once then begin
        (* fail fast for scripts: a fetch/parse failure in one-shot mode
           is an error exit, while the polling loop (above) just warns
           and retries on the next interval — transient ECONNREFUSED
           while the server boots must not kill a watch *)
        match finished with None -> exit 1 | Some _ -> ()
      end
      else
        match finished with
        | Some true -> Format.printf "urs watch: all tasks finished@."
        | _ ->
            Unix.sleepf interval;
            loop ()
    in
    loop ()
  in
  let port =
    Arg.(
      required
      & opt (some int) None
      & info [ "p"; "port" ] ~docv:"PORT"
          ~doc:
            "Port of a running $(b,urs serve) or $(b,--serve-metrics) \
             server on 127.0.0.1.")
  in
  let interval =
    Arg.(
      value & opt float 1.0
      & info [ "n"; "interval" ] ~docv:"SECONDS"
          ~doc:"Seconds between polls (default 1).")
  in
  let once =
    Arg.(
      value & flag
      & info [ "once" ] ~doc:"Print a single snapshot and exit (scripts).")
  in
  Cmd.v
    (Cmd.info "watch"
       ~doc:
         "Poll another urs process's /progress endpoint and render task \
          completion, rate and ETA in the terminal, until every task \
          reports finished (or forever for open-ended servers; Ctrl-C to \
          stop).")
    Term.(const run $ port $ interval $ once)

(* ---- report ---- *)

let report_cmd =
  let run history last format max_ratio ledger_path detect =
    match Urs_obs.Perf.read_file history with
    | Error msg -> `Error (false, "cannot read history: " ^ msg)
    | Ok [] -> `Error (false, Printf.sprintf "%s: no history entries" history)
    | Ok entries ->
        let entries =
          match last with
          | Some n when n >= 1 ->
              let len = List.length entries in
              if len <= n then entries
              else List.filteri (fun i _ -> i >= len - n) entries
          | _ -> entries
        in
        let r = Urs_obs.Perf.analyze ~max_ratio entries in
        let body =
          match format with
          | `Table -> Urs_obs.Perf.render_table r
          | `Markdown -> Urs_obs.Perf.render_markdown r
          | `Json -> Urs_obs.Perf.render_json r ^ "\n"
          | `Data -> Urs_obs.Perf.render_data r
        in
        print_string body;
        (match ledger_path with
        | None -> ()
        | Some path -> (
            match read_ledger_records "report" path with
            | Error msg ->
                Format.eprintf "urs report: cannot read ledger: %s@." msg
            | Ok records -> (
                match format with
                | `Table | `Markdown ->
                    print_string
                      ("\n"
                      ^ Urs_obs.Perf.render_ledger_digest
                          (Urs_obs.Perf.ledger_digest records))
                | `Json | `Data -> ())));
        let drift_breach =
          if not detect then false
          else begin
            let drifts = Urs_obs.Perf.detect_drift entries in
            let solvers = List.length r.Urs_obs.Perf.trends in
            (match format with
            | `Table | `Markdown ->
                print_string ("\n" ^ Urs_obs.Perf.render_drifts ~solvers drifts)
            | `Json ->
                print_string
                  (Urs_obs.Json.to_string (Urs_obs.Perf.drifts_json drifts)
                  ^ "\n")
            | `Data -> ());
            Urs_obs.Perf.drift_regressions drifts <> []
          end
        in
        (* the CI gate greps the exit status, not the output *)
        if r.Urs_obs.Perf.breaches <> [] || drift_breach then exit 1;
        `Ok ()
  in
  let history =
    Arg.(
      value
      & opt string "BENCH_history.jsonl"
      & info [ "history" ] ~docv:"FILE"
          ~doc:
            "Perf-history journal to analyze (urs-perf/1 JSONL, appended by \
             $(b,make bench)).")
  in
  let last =
    Arg.(
      value
      & opt (some int) None
      & info [ "last" ] ~docv:"N"
          ~doc:"Only consider the last $(docv) history entries.")
  in
  let format =
    Arg.(
      value
      & opt
          (enum
             [ ("table", `Table); ("markdown", `Markdown); ("json", `Json);
               ("data", `Data) ])
          `Table
      & info [ "format" ]
          ~doc:
            "Output format: $(b,table) (fixed-width text), $(b,markdown), \
             $(b,json), or $(b,data) (gnuplot-ready per-solver columns).")
  in
  let max_ratio =
    Arg.(
      value & opt float 2.0
      & info [ "max-ratio" ] ~docv:"R"
          ~doc:
            "Breach threshold: exit 1 when a gated solver's latest run \
             exceeds $(docv) times its best-known run.")
  in
  let ledger_path =
    Arg.(
      value
      & opt (some string) None
      & info [ "ledger" ] ~docv:"FILE"
          ~doc:
            "Also digest a run-ledger JSONL (records and wall time by kind) \
             into table/markdown output.")
  in
  let detect =
    Arg.(
      value & flag
      & info [ "detect" ]
          ~doc:
            "Also run CUSUM change-point detection over each solver's \
             per-run wall times (in log space — a regression is a \
             multiplicative step). Any step is reported with the run and \
             commit it arrived with; a confirmed upward step on a gated \
             solver also makes the command exit 1. Short histories (fewer \
             than 10 runs per solver) never flag.")
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:
         "Aggregate the bench perf history (and optionally a run ledger) \
          into a regression report: per-solver wall-time and \
          alloc-per-solve trends, ratio vs. best-known. Exits 1 when the \
          latest gated (spectral) entry regresses beyond --max-ratio (or, \
          with $(b,--detect), when a change-point step is confirmed on a \
          gated solver), so CI can gate on trends.")
    Term.(
      ret
        (const run $ history $ last $ format $ max_ratio $ ledger_path
       $ detect))

(* ---- query ---- *)

let query_cmd =
  let run ledger kind strategy outcome route trace_id since until group_by
      aggs format =
    let module Q = Urs_obs.Query in
    let parse_aggs specs =
      let specs = if specs = [] then [ "count" ] else specs in
      List.fold_left
        (fun acc spec ->
          match (acc, Q.parse_agg spec) with
          | (Error _ as e), _ -> e
          | Ok l, Ok a -> Ok (l @ [ a ])
          | Ok _, Error msg -> Error ("--agg " ^ spec ^ ": " ^ msg))
        (Ok []) specs
    in
    match
      (Q.parse_group_by (Option.value group_by ~default:""), parse_aggs aggs)
    with
    | Error msg, _ -> `Error (false, "--group-by: " ^ msg)
    | _, Error msg -> `Error (false, msg)
    | Ok group_by, Ok aggs -> (
        let filter =
          { Q.kind; strategy; outcome; route; trace_id; since; until }
        in
        match Q.run ~filter ~group_by ~aggs ledger with
        | Error msg -> `Error (false, msg)
        | Ok t ->
            if t.Q.malformed > 0 then
              Format.eprintf
                "urs query: skipped %d malformed ledger line(s) (torn \
                 tail?)@."
                t.Q.malformed;
            print_string
              (match format with
              | `Table -> Q.render_table t
              | `Json -> Q.render_json t ^ "\n"
              | `Data -> Q.render_data t);
            `Ok ())
  in
  let ledger =
    Arg.(
      value
      & opt string "BENCH_ledger.jsonl"
      & info [ "ledger" ] ~docv:"FILE"
          ~doc:
            "Ledger to query (urs-ledger JSONL). Rotated segments \
             ($(docv).1, $(docv).2, ...) are merged oldest-first \
             automatically.")
  in
  let filter_opt names docv doc =
    Arg.(value & opt (some string) None & info names ~docv ~doc)
  in
  let kind = filter_opt [ "kind" ] "KIND"
      "Only records of this kind (solve, sweep.point, http.access, ...)."
  in
  let strategy = filter_opt [ "strategy" ] "NAME"
      "Only records with this strategy (solver name)."
  in
  let outcome = filter_opt [ "outcome" ] "OUTCOME"
      "Only records with this outcome (ok, error, ...)."
  in
  let route = filter_opt [ "route" ] "ROUTE"
      "Only http.access records for this route param."
  in
  let trace_id = filter_opt [ "trace" ] "TRACE_ID"
      "Only records stamped with this trace id."
  in
  let time_opt names doc =
    Arg.(value & opt (some float) None & info names ~docv:"UNIX_TS" ~doc)
  in
  let since =
    time_opt [ "since" ]
      "Only records with time >= $(docv) (inclusive; unix seconds)."
  in
  let until =
    time_opt [ "until" ] "Only records with time <= $(docv) (inclusive)."
  in
  let group_by =
    Arg.(
      value
      & opt (some string) None
      & info [ "group-by" ] ~docv:"KEYS"
          ~doc:
            "Comma-separated grouping keys: $(b,kind), $(b,strategy), \
             $(b,outcome), $(b,route), $(b,trace). Without the flag \
             everything aggregates into one row.")
  in
  let aggs =
    Arg.(
      value & opt_all string []
      & info [ "agg" ] ~docv:"AGG"
          ~doc:
            "Aggregation (repeatable; default $(b,count)): $(b,count), \
             $(b,rate), $(b,mean(F)), $(b,stddev(F)), $(b,min(F)), \
             $(b,max(F)) or $(b,pN(F)) — N a percentile like 50, 99 or \
             99.9 and F a field: $(b,wall_seconds), $(b,time), or any \
             gauge/summary/param name.")
  in
  let format =
    Arg.(
      value
      & opt (enum [ ("table", `Table); ("json", `Json); ("data", `Data) ])
          `Table
      & info [ "format" ]
          ~doc:
            "Output format: $(b,table) (fixed-width text), $(b,json), or \
             $(b,data) (gnuplot-ready columns).")
  in
  Cmd.v
    (Cmd.info "query"
       ~doc:
         "Filter, group and aggregate a run ledger (all rotated segments, \
          streaming — a torn tail line is skipped with a warning, not \
          fatal). Aggregations reuse the library's estimators, e.g. \
          $(b,urs query --kind http.access --group-by route --agg count \
          --agg p99(wall_seconds)).")
    Term.(
      ret
        (const run $ ledger $ kind $ strategy $ outcome $ route $ trace_id
       $ since $ until $ group_by $ aggs $ format))

(* ---- tail ---- *)

let tail_cmd =
  let run port kind n since_seq follow =
    let open Urs_obs in
    let str_field kvs k =
      match List.assoc_opt k kvs with
      | Some (Json.String s) -> s
      | Some j -> Json.to_string j
      | None -> "-"
    in
    let print_record (r : Ledger.record) =
      if r.Ledger.kind = "http.access" then
        Format.printf "[seq %d] %s %s -> %s (%.3fms) trace=%s@." r.Ledger.seq
          (str_field r.Ledger.params "method")
          (str_field r.Ledger.params "path")
          (str_field r.Ledger.summary "status")
          (r.Ledger.wall_seconds *. 1e3)
          (Option.value r.Ledger.trace_id ~default:"-")
      else
        Format.printf "[seq %d] %s%s %s %.3fms trace=%s@." r.Ledger.seq
          r.Ledger.kind
          (match r.Ledger.strategy with Some s -> "/" ^ s | None -> "")
          r.Ledger.outcome
          (r.Ledger.wall_seconds *. 1e3)
          (Option.value r.Ledger.trace_id ~default:"-")
    in
    let fetch ~seq ~wait_ms =
      let path =
        Printf.sprintf "/tail?since_seq=%d&n=%d&wait_ms=%d%s" seq n wait_ms
          (match kind with None -> "" | Some k -> "&kind=" ^ k)
      in
      (* the server answers within max_tail_wait_ms; pad the socket
         timeout so a full long-poll never reads as unreachable *)
      let timeout_s = (float_of_int wait_ms /. 1000.0) +. 5.0 in
      match Http.get ~timeout_s ~port path with
      | Error msg ->
          Error (Printf.sprintf "127.0.0.1:%d unreachable (%s)" port msg)
      | Ok (status, body) when status <> 200 ->
          Error (Printf.sprintf "/tail returned %d: %s" status
                   (String.trim body))
      | Ok (_, body) -> (
          match Json.of_string (String.trim body) with
          | Error msg -> Error ("bad /tail JSON: " ^ msg)
          | Ok j ->
              let cursor =
                match Option.bind (Json.member "seq" j) Json.to_float_opt with
                | Some f -> int_of_float f
                | None -> seq
              in
              let records =
                match Json.member "records" j with
                | Some (Json.List rs) ->
                    List.filter_map
                      (fun rj -> Result.to_option (Ledger.of_json rj))
                      rs
                | _ -> []
              in
              Ok (records, cursor))
    in
    let rec loop seq =
      let wait_ms = if follow then Routes.max_tail_wait_ms else 0 in
      match fetch ~seq ~wait_ms with
      | Error msg -> `Error (false, "urs tail: " ^ msg)
      | Ok (records, cursor) ->
          List.iter print_record records;
          if follow then loop cursor else `Ok ()
    in
    loop since_seq
  in
  let port =
    Arg.(
      required
      & opt (some int) None
      & info [ "p"; "port" ] ~docv:"PORT"
          ~doc:
            "Port of a running $(b,urs serve) or $(b,--serve-metrics) \
             server on 127.0.0.1.")
  in
  let kind =
    Arg.(
      value
      & opt (some string) None
      & info [ "kind" ] ~docv:"KIND"
          ~doc:"Only records of this kind (e.g. http.access, solve).")
  in
  let n =
    Arg.(
      value & opt int 100
      & info [ "n" ] ~docv:"N" ~doc:"Records per poll (default 100).")
  in
  let since_seq =
    Arg.(
      value & opt int 0
      & info [ "since-seq" ] ~docv:"SEQ"
          ~doc:
            "Start the cursor after this sequence number (default 0: \
             everything still in the server's ring).")
  in
  let follow =
    Arg.(
      value & flag
      & info [ "f"; "follow" ]
          ~doc:
            "Keep long-polling for new records (tail -f) until \
             interrupted; without it, print one page and exit.")
  in
  Cmd.v
    (Cmd.info "tail"
       ~doc:
         "Stream recent ledger records from another urs process's /tail \
          endpoint (the in-memory ring): one page by default, a live \
          follow with $(b,--follow). The cursor never skips records the \
          server still holds, even across truncated pages.")
    Term.(ret (const run $ port $ kind $ n $ since_seq $ follow))

(* ---- trace ---- *)

let trace_grep_cmd =
  let run trace_id ledger_path trace_path =
    let id = String.lowercase_ascii (String.trim trace_id) in
    let is_hex =
      String.for_all
        (function '0' .. '9' | 'a' .. 'f' -> true | _ -> false)
        id
    in
    if String.length id <> 32 || not is_hex then
      `Error (true, "TRACE_ID must be 32 hex digits (a trace id)")
    else begin
      let open Urs_obs in
      let matches = ref 0 in
      let str_field kvs k =
        match List.assoc_opt k kvs with
        | Some (Json.String s) -> s
        | Some j -> Json.to_string j
        | None -> "-"
      in
      (match ledger_path with
      | None -> ()
      | Some path -> (
          match
            read_ledger_records "trace" path
              ~filter:(fun r -> r.Ledger.trace_id = Some id)
          with
          | Error msg ->
              Format.eprintf "urs trace: cannot read ledger: %s@." msg
          | Ok hits ->
              if hits <> [] then begin
                matches := !matches + List.length hits;
                Format.printf "ledger %s: %d record(s)@." path
                  (List.length hits);
                List.iter
                  (fun r ->
                    if r.Ledger.kind = "http.access" then
                      (* the access log reading of the record *)
                      Format.printf
                        "  [seq %d] %s %s -> %s (%s bytes, %.3fms) \
                         request=%s@."
                        r.Ledger.seq
                        (str_field r.Ledger.params "method")
                        (str_field r.Ledger.params "path")
                        (str_field r.Ledger.summary "status")
                        (str_field r.Ledger.summary "bytes")
                        (r.Ledger.wall_seconds *. 1e3)
                        (str_field r.Ledger.summary "request_id")
                    else
                      Format.printf
                        "  [seq %d] %s%s %s %.3fms span=%s@." r.Ledger.seq
                        r.Ledger.kind
                        (match r.Ledger.strategy with
                        | Some s -> "/" ^ s
                        | None -> "")
                        r.Ledger.outcome
                        (r.Ledger.wall_seconds *. 1e3)
                        (Option.value r.Ledger.span_id ~default:"-"))
                  hits
              end));
      (match trace_path with
      | None -> ()
      | Some path -> (
          let contents =
            try Ok (In_channel.with_open_text path In_channel.input_all)
            with Sys_error msg -> Error msg
          in
          match Result.bind contents Json.of_string with
          | Error msg ->
              Format.eprintf "urs trace: cannot read trace file: %s@." msg
          | Ok j ->
              (* flatten the flame-JSON forest, keep this trace's spans,
                 then reknit the logical tree by parent span id — this
                 is where per-domain physical forests become one tree *)
              let spans = ref [] in
              let rec go node =
                let str k =
                  Option.bind (Json.member k node) Json.to_string_opt
                in
                let num k =
                  Option.bind (Json.member k node) Json.to_float_opt
                in
                (match (str "trace_id", str "span_id") with
                | Some t, Some s when t = id ->
                    spans :=
                      ( s,
                        str "parent_span_id",
                        Option.value (str "name") ~default:"?",
                        Option.value (num "domain") ~default:0.0,
                        Option.value (num "duration_s") ~default:0.0 )
                      :: !spans
                | _ -> ());
                match Json.member "children" node with
                | Some (Json.List cs) -> List.iter go cs
                | _ -> ()
              in
              (match Json.member "spans" j with
              | Some (Json.List roots) -> List.iter go roots
              | _ ->
                  Format.eprintf
                    "urs trace: %s is not a flame-format trace (no \
                     \"spans\"; use --trace-format flame)@."
                    path);
              let spans = List.rev !spans in
              if spans <> [] then begin
                matches := !matches + List.length spans;
                let known = Hashtbl.create 16 in
                List.iter
                  (fun (s, _, _, _, _) -> Hashtbl.replace known s ())
                  spans;
                let children = Hashtbl.create 16 in
                List.iter
                  (fun ((_, parent, _, _, _) as sp) ->
                    match parent with
                    | Some p when Hashtbl.mem known p ->
                        Hashtbl.replace children p
                          (sp :: Option.value ~default:[]
                                   (Hashtbl.find_opt children p))
                    | _ -> ())
                  spans;
                let roots =
                  List.filter
                    (fun (_, parent, _, _, _) ->
                      match parent with
                      | Some p -> not (Hashtbl.mem known p)
                      | None -> true)
                    spans
                in
                Format.printf "trace %s: %d span(s), %d root(s)@." path
                  (List.length spans) (List.length roots);
                let rec print_span indent (s, _, name, domain, dur) =
                  Format.printf "  %s%s %.3fms (domain %.0f, span %s)@."
                    indent name (dur *. 1e3) domain s;
                  List.iter
                    (print_span (indent ^ "  "))
                    (List.rev
                       (Option.value ~default:[]
                          (Hashtbl.find_opt children s)))
                in
                List.iter (print_span "") roots
              end));
      if ledger_path = None && trace_path = None then
        `Error
          (true, "nothing to search: pass --ledger FILE and/or --trace FILE")
      else if !matches = 0 then begin
        Format.printf "no records for trace %s@." id;
        exit 1
      end
      else `Ok ()
    end
  in
  let trace_id =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"TRACE_ID"
          ~doc:
            "The 32-hex-digit trace id to search for (printed by traced \
             runs, returned in the $(b,traceparent) response header of \
             $(b,urs serve)).")
  in
  let ledger_path =
    Arg.(
      value
      & opt (some string) None
      & info [ "ledger" ] ~docv:"FILE"
          ~doc:"Run-ledger JSONL to search (urs-ledger/1 or /2).")
  in
  let trace_path =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Span-trace JSON to search ($(b,--trace-format flame) \
             output); matching spans are reassembled into their logical \
             tree across domains.")
  in
  Cmd.v
    (Cmd.info "grep"
       ~doc:
         "Pull every observation of one trace — access-log lines, ledger \
          records, spans — out of a ledger and/or trace file. Exits 1 \
          when the trace id appears in neither.")
    Term.(ret (const run $ trace_id $ ledger_path $ trace_path))

let trace_cmd =
  Cmd.group
    (Cmd.info "trace"
       ~doc:
         "Inspect trace correlation output (see the README's 'Tracing & \
          request correlation').")
    [ trace_grep_cmd ]

let version = "1.0.0"

let () =
  Urs_obs.Export.set_build_info ~version ();
  let info =
    Cmd.info "urs" ~version
      ~doc:"Performance evaluation of multi-server systems with unreliable servers"
  in
  let group =
    Cmd.group info
      [ solve_cmd; stability_cmd; optimize_cmd; capacity_cmd; simulate_cmd;
        sweep_cmd; metrics_cmd; dataset_cmd; fit_cmd; doctor_cmd; inspect_cmd;
        serve_cmd; loadgen_cmd; slo_cmd; watch_cmd; report_cmd; query_cmd;
        tail_cmd; trace_cmd ]
  in
  exit (Cmd.eval group)
