(* The execution layer: domain pool semantics (ordering, exceptions,
   teardown, nesting), the memo cache, domain-safety of the obs layer
   under pool load, and the determinism guarantees the --jobs flag
   relies on (pool width must never change a result). *)

module Pool = Urs_exec.Pool
module Cache = Urs_exec.Cache
module Metrics = Urs_obs.Metrics
module Ledger = Urs_obs.Ledger

(* ---- pool semantics ---- *)

let test_pool_map_matches_list_map () =
  let xs = List.init 100 Fun.id in
  let f x = (x * x) + 1 in
  let expected = List.map f xs in
  List.iter
    (fun domains ->
      Pool.with_pool ~domains (fun pool ->
          Alcotest.(check (list int))
            (Printf.sprintf "ordered results, domains=%d" domains)
            expected (Pool.map pool f xs)))
    [ 1; 2; 4 ]

let test_pool_empty_and_single () =
  Pool.with_pool ~domains:3 (fun pool ->
      Alcotest.(check (list int)) "empty input" [] (Pool.map pool succ []);
      Alcotest.(check (list int)) "single input" [ 8 ] (Pool.map pool succ [ 7 ]))

exception Boom of int

let test_pool_exception_propagation () =
  List.iter
    (fun domains ->
      Pool.with_pool ~domains (fun pool ->
          let ran = Atomic.make 0 in
          let f x =
            Atomic.incr ran;
            if x mod 3 = 1 then raise (Boom x) else x
          in
          (match Pool.map pool f (List.init 10 Fun.id) with
          | _ -> Alcotest.fail "expected Boom"
          | exception Boom x ->
              Alcotest.(check int)
                (Printf.sprintf "earliest failing input, domains=%d" domains)
                1 x);
          Alcotest.(check int)
            "all tasks still ran" 10 (Atomic.get ran)))
    [ 1; 4 ]

let test_pool_map_result () =
  Pool.with_pool ~domains:2 (fun pool ->
      let outcomes =
        Pool.map_result pool
          (fun x -> if x = 2 then raise (Boom x) else 10 * x)
          [ 1; 2; 3 ]
      in
      match outcomes with
      | [ Ok 10; Error (Boom 2); Ok 30 ] -> ()
      | _ -> Alcotest.fail "unexpected map_result outcomes")

let test_pool_nested_map () =
  Pool.with_pool ~domains:3 (fun pool ->
      let result =
        Pool.map pool
          (fun i -> List.fold_left ( + ) 0 (Pool.map pool (( * ) i) [ 1; 2; 3 ]))
          (List.init 8 Fun.id)
      in
      Alcotest.(check (list int))
        "nested batches complete" (List.init 8 (fun i -> 6 * i)) result)

let test_pool_map_reduce () =
  (* string concatenation is not commutative: a deterministic fold order
     is observable *)
  let xs = List.init 50 Fun.id in
  let expected = String.concat "," (List.map string_of_int xs) in
  List.iter
    (fun domains ->
      Pool.with_pool ~domains (fun pool ->
          let got =
            Pool.map_reduce pool ~map:string_of_int
              ~fold:(fun acc s -> if acc = "" then s else acc ^ "," ^ s)
              ~init:"" xs
          in
          Alcotest.(check string)
            (Printf.sprintf "fold in input order, domains=%d" domains)
            expected got))
    [ 1; 4 ]

let test_pool_shutdown () =
  let pool = Pool.create ~domains:4 () in
  (* a real load right before teardown: every queued task must complete *)
  let n = 500 in
  let sum = Pool.map_reduce pool ~map:Fun.id ~fold:( + ) ~init:0 (List.init n Fun.id) in
  Alcotest.(check int) "work before shutdown" (n * (n - 1) / 2) sum;
  Pool.shutdown pool;
  Pool.shutdown pool;
  (* idempotent *)
  (match Pool.map pool succ [ 1 ] with
  | _ -> Alcotest.fail "map after shutdown must raise"
  | exception Invalid_argument _ -> ());
  match Pool.create ~domains:0 () with
  | _ -> Alcotest.fail "domains=0 must be rejected"
  | exception Invalid_argument _ -> ()

let test_pool_domains () =
  Pool.with_pool ~domains:3 (fun pool ->
      Alcotest.(check int) "width" 3 (Pool.domains pool));
  Pool.with_pool ~domains:1 (fun pool ->
      Alcotest.(check int) "sequential width" 1 (Pool.domains pool))

(* ---- per-task GC accounting ---- *)

(* With profiling armed, every task folds its GC word delta into the
   pool's gc counters; minor words are domain-local, so a 4-domain pool
   must account the same per-task allocation as the sequential inline
   path. With profiling off the counters must never move — the
   zero-overhead default. *)
let test_pool_gc_accounting () =
  let work x =
    ignore
      (Sys.opaque_identity (List.init 20_000 (fun i -> float_of_int (i + x))));
    x
  in
  let xs = List.init 40 Fun.id in
  let minor name =
    Option.value ~default:0.0
      (Metrics.value ~labels:[ ("pool", name) ] "urs_pool_gc_minor_words_total")
  in
  Pool.with_pool ~name:"gcoff" ~domains:2 (fun pool ->
      ignore (Pool.map pool work xs));
  Alcotest.(check (float 0.0)) "profiling off: zero" 0.0 (minor "gcoff");
  Urs_obs.Runtime.set_profiling true;
  Fun.protect
    ~finally:(fun () -> Urs_obs.Runtime.set_profiling false)
    (fun () ->
      Pool.with_pool ~name:"gcseq" ~domains:1 (fun pool ->
          ignore (Pool.map pool work xs));
      Pool.with_pool ~name:"gcpar" ~domains:4 (fun pool ->
          ignore (Pool.map pool work xs));
      let seq = minor "gcseq" and par = minor "gcpar" in
      (* 40 tasks x 20k list elements is at least a few million words *)
      if seq < 1e6 then
        Alcotest.failf "sequential path under-accounts: %g minor words" seq;
      let rel = Float.abs (par -. seq) /. seq in
      if rel > 0.10 then
        Alcotest.failf
          "gc accounting diverges across widths: seq %g par %g (%.1f%%)" seq
          par (100.0 *. rel);
      (* the parallel path also promotes some of it; the counter must
         exist and stay non-negative *)
      match
        Metrics.value
          ~labels:[ ("pool", "gcpar") ]
          "urs_pool_gc_promoted_words_total"
      with
      | Some p when p >= 0.0 -> ()
      | _ -> Alcotest.fail "promoted-words counter missing")

(* ---- obs layer under concurrent load ---- *)

(* Hammer one counter, one gauge and one histogram from several domains;
   totals must come out exact — a lost update means the guards are
   broken, and this test is the one that catches it. *)
let test_metrics_concurrent_exact () =
  let registry = Metrics.create () in
  let c = Metrics.counter ~registry "stress_total" in
  let g = Metrics.gauge ~registry "stress_gauge" in
  let h = Metrics.histogram ~registry ~buckets:[| 0.5 |] "stress_hist" in
  let domains = 4 and per_domain = 25_000 in
  let work () =
    for i = 1 to per_domain do
      Metrics.inc c;
      Metrics.add g 2.0;
      Metrics.observe h (if i mod 2 = 0 then 0.25 else 0.75)
    done
  in
  let spawned = List.init (domains - 1) (fun _ -> Domain.spawn work) in
  work ();
  List.iter Domain.join spawned;
  let total = float_of_int (domains * per_domain) in
  Alcotest.(check (float 0.0)) "counter exact" total (Metrics.counter_value c);
  Alcotest.(check (float 0.0))
    "gauge adds exact" (2.0 *. total) (Metrics.gauge_value g);
  let entries = Metrics.snapshot ~registry () in
  let count =
    List.find_map
      (fun (e : Metrics.entry) ->
        match e.Metrics.data with
        | Metrics.Histogram_value { count; _ }
          when e.Metrics.name = "stress_hist" ->
            Some count
        | _ -> None)
      entries
  in
  Alcotest.(check (option int))
    "histogram observations exact"
    (Some (domains * per_domain))
    count

let test_ledger_concurrent_ring () =
  Ledger.reset ();
  Ledger.set_memory true;
  Fun.protect ~finally:Ledger.reset @@ fun () ->
  let domains = 4 and per_domain = 100 in
  let work d () =
    for i = 1 to per_domain do
      Ledger.record ~kind:"stress"
        ~params:
          [ ("domain", Urs_obs.Json.Int d); ("i", Urs_obs.Json.Int i) ]
        ~wall_seconds:0.0 ()
    done
  in
  let spawned = List.init (domains - 1) (fun d -> Domain.spawn (work (d + 1))) in
  work 0 ();
  List.iter Domain.join spawned;
  let records = Ledger.recent ~limit:(domains * per_domain) () in
  Alcotest.(check int)
    "every record kept" (domains * per_domain) (List.length records);
  let seqs = List.map (fun r -> r.Ledger.seq) records in
  let uniq = List.sort_uniq compare seqs in
  Alcotest.(check int)
    "sequence numbers unique" (List.length seqs) (List.length uniq)

(* The process-global QR sweep counter is an Atomic: four domains
   solving the same deterministic matrix must account for every sweep
   exactly, no lost updates. *)
let test_qr_sweep_counter_concurrent_exact () =
  let open Urs_linalg in
  let a =
    Matrix.init 10 10 (fun i j -> sin (float_of_int ((i * 10) + j + 1)))
  in
  let sweeps_of_one =
    let before = Qr_eig.total_sweeps () in
    ignore (Eigen.eigenvalues a);
    Qr_eig.total_sweeps () - before
  in
  Alcotest.(check bool) "solve costs sweeps" true (sweeps_of_one > 0);
  let domains = 4 and per_domain = 8 in
  let before = Qr_eig.total_sweeps () in
  let work () =
    for _ = 1 to per_domain do
      ignore (Eigen.eigenvalues a)
    done
  in
  let spawned = List.init (domains - 1) (fun _ -> Domain.spawn work) in
  work ();
  List.iter Domain.join spawned;
  Alcotest.(check int)
    "total exact under contention"
    (domains * per_domain * sweeps_of_one)
    (Qr_eig.total_sweeps () - before)

(* ---- memo cache ---- *)

let test_cache_hit_miss_counters () =
  let registry = Metrics.create () in
  let c = Cache.create ~registry ~name:"t" () in
  let calls = ref 0 in
  let compute () = incr calls; 42 in
  Alcotest.(check int) "miss computes" 42 (Cache.find_or_compute c "k" compute);
  Alcotest.(check int) "hit reuses" 42 (Cache.find_or_compute c "k" compute);
  Alcotest.(check int) "computed once" 1 !calls;
  Alcotest.(check (option (float 0.0)))
    "one miss"
    (Some 1.0)
    (Metrics.value ~registry ~labels:[ ("cache", "t") ] "urs_cache_misses_total");
  Alcotest.(check (option (float 0.0)))
    "one hit"
    (Some 1.0)
    (Metrics.value ~registry ~labels:[ ("cache", "t") ] "urs_cache_hits_total");
  Alcotest.(check (option int)) "find" (Some 42) (Cache.find c "k");
  Alcotest.(check (option int)) "find miss" None (Cache.find c "absent")

let test_cache_lru_eviction () =
  let registry = Metrics.create () in
  let c = Cache.create ~registry ~capacity:2 ~name:"lru" () in
  ignore (Cache.find_or_compute c "a" (fun () -> 1));
  ignore (Cache.find_or_compute c "b" (fun () -> 2));
  ignore (Cache.find c "a");
  (* refresh a: b is now the LRU entry *)
  ignore (Cache.find_or_compute c "c" (fun () -> 3));
  Alcotest.(check int) "bounded" 2 (Cache.length c);
  Alcotest.(check (option int)) "a survived" (Some 1) (Cache.find c "a");
  Alcotest.(check (option int)) "b evicted" None (Cache.find c "b");
  Alcotest.(check (option (float 0.0)))
    "eviction counted"
    (Some 1.0)
    (Metrics.value ~registry
       ~labels:[ ("cache", "lru") ]
       "urs_cache_evictions_total");
  Cache.clear c;
  Alcotest.(check int) "clear empties" 0 (Cache.length c)

let test_cache_exception_not_cached () =
  let c = Cache.create ~name:"exn" () in
  (match Cache.find_or_compute c "k" (fun () -> failwith "boom") with
  | _ -> Alcotest.fail "expected Failure"
  | exception Failure _ -> ());
  Alcotest.(check int) "nothing cached" 0 (Cache.length c);
  Alcotest.(check int) "later compute works" 7
    (Cache.find_or_compute c "k" (fun () -> 7))

let test_cache_concurrent_first_insert_wins () =
  let c = Cache.create ~name:"race" () in
  let domains = 4 in
  let spawned =
    List.init domains (fun d ->
        Domain.spawn (fun () ->
            Cache.find_or_compute c "shared" (fun () -> d)))
  in
  let results = List.map Domain.join spawned in
  let winner = Cache.find c "shared" in
  Alcotest.(check bool) "a value was kept" true (winner <> None);
  let w = Option.get winner in
  Alcotest.(check bool)
    "every caller observes one of the computed values" true
    (List.mem w results);
  Alcotest.(check int) "single entry" 1 (Cache.length c)

(* ---- determinism across pool widths ---- *)

let paper_model =
  Urs.Model.create ~servers:3 ~arrival_rate:2.0 ~service_rate:1.0
    ~operative:Urs.Model.paper_operative
    ~inoperative:Urs.Model.paper_inoperative_exp ()

let test_sweep_identical_across_widths () =
  let values = [ 1.0; 1.5; 2.0; 2.4 ] in
  let sequential = Urs.Sweep.over_arrival_rates paper_model ~values in
  Pool.with_pool ~domains:4 (fun pool ->
      let parallel = Urs.Sweep.over_arrival_rates ~pool paper_model ~values in
      Alcotest.(check int)
        "same point count" (List.length sequential) (List.length parallel);
      List.iter2
        (fun (x1, (p1 : Urs.Solver.performance)) (x2, p2) ->
          Alcotest.(check (float 0.0)) "x" x1 x2;
          Alcotest.(check (float 0.0)) "mean jobs" p1.Urs.Solver.mean_jobs
            p2.Urs.Solver.mean_jobs;
          Alcotest.(check (float 0.0)) "mean response"
            p1.Urs.Solver.mean_response p2.Urs.Solver.mean_response)
        sequential parallel)

let test_replicate_identical_across_widths () =
  let cfg =
    {
      Urs_sim.Server_farm.servers = 2;
      lambda = 1.0;
      mu = 1.0;
      operative = Urs_prob.Distribution.exponential ~rate:0.05;
      inoperative = Urs_prob.Distribution.exponential ~rate:10.0;
      repair_crews = None;
    }
  in
  let run ?pool () =
    Urs_sim.Replicate.run ?pool ~seed:11 ~replications:4 ~duration:1_000.0 cfg
  in
  let sequential = run () in
  Pool.with_pool ~domains:4 (fun pool ->
      let parallel = run ~pool () in
      Alcotest.(check (float 0.0))
        "mean jobs bit-identical"
        sequential.Urs_sim.Replicate.mean_jobs.Urs_sim.Replicate.estimate
        parallel.Urs_sim.Replicate.mean_jobs.Urs_sim.Replicate.estimate;
      Alcotest.(check (float 0.0))
        "CI bit-identical"
        sequential.Urs_sim.Replicate.mean_jobs.Urs_sim.Replicate.half_width
        parallel.Urs_sim.Replicate.mean_jobs.Urs_sim.Replicate.half_width)

let test_solve_cache_reuses_result () =
  let cache = Urs.Solve_cache.create () in
  let first = Urs.Solve_cache.evaluate ~cache paper_model in
  let second = Urs.Solve_cache.evaluate ~cache paper_model in
  (match (first, second) with
  | Ok a, Ok b ->
      Alcotest.(check (float 0.0))
        "memoized value" a.Urs.Solver.mean_jobs b.Urs.Solver.mean_jobs
  | _ -> Alcotest.fail "expected Ok");
  Alcotest.(check int) "one entry" 1 (Urs.Solve_cache.length cache);
  (* a different strategy is a different key *)
  ignore
    (Urs.Solve_cache.evaluate ~cache ~strategy:Urs.Solver.Approximate
       paper_model);
  Alcotest.(check int) "strategy in key" 2 (Urs.Solve_cache.length cache);
  (* errors are memoized too *)
  let unstable = Urs.Model.with_arrival_rate paper_model 50.0 in
  (match Urs.Solve_cache.evaluate ~cache unstable with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected unstable error");
  Alcotest.(check int) "error cached" 3 (Urs.Solve_cache.length cache)

let test_solve_cache_key_distinguishes_models () =
  let k m = Urs.Solve_cache.key Urs.Solver.Exact m in
  Alcotest.(check bool)
    "same model, same key" true
    (k paper_model = k paper_model);
  let nudged =
    Urs.Model.with_arrival_rate paper_model
      (paper_model.Urs.Model.arrival_rate +. 1e-15)
  in
  Alcotest.(check bool)
    "1 ulp apart, different key" true
    (k paper_model <> k nudged);
  Alcotest.(check bool)
    "servers in key" true
    (k paper_model <> k (Urs.Model.with_servers paper_model 4))

(* ---- cross-domain trace correlation ---- *)

module Span = Urs_obs.Span
module Context = Urs_obs.Context
module Json = Urs_obs.Json

(* logical span shape: name + children, stripped of ids and timings *)
type shape = { sname : string; kids : shape list }

let rec canon s =
  { s with kids = List.sort compare (List.map canon s.kids) }

(* flatten the physical per-domain forest of trace_json into
   (span_id, parent_span_id, name, trace_id) tuples *)
let flatten_trace json =
  let rec walk acc node =
    let str k =
      match Json.member k node with
      | Some (Json.String s) -> Some s
      | _ -> None
    in
    let entry =
      ( Option.value ~default:"" (str "span_id"),
        str "parent_span_id",
        Option.value ~default:"" (str "name"),
        Option.value ~default:"" (str "trace_id") )
    in
    let kids =
      match Json.member "children" node with
      | Some (Json.List l) -> l
      | _ -> []
    in
    List.fold_left walk (entry :: acc) kids
  in
  match Json.of_string json with
  | Error e -> Alcotest.fail ("trace_json does not parse: " ^ e)
  | Ok j -> (
      match Json.member "spans" j with
      | Some (Json.List roots) -> List.fold_left walk [] roots
      | _ -> Alcotest.fail "trace_json has no spans array")

(* reknit the logical tree by span ids and splice out the pool's
   "urs_pool_task" wrapper nodes, so jobs=1 (no wrapper) and jobs=4
   (one wrapper per task) compare shape-for-shape *)
let logical_roots nodes =
  let known = Hashtbl.create 64 in
  List.iter (fun (id, _, _, _) -> Hashtbl.replace known id ()) nodes;
  let children = Hashtbl.create 64 in
  let roots =
    List.filter
      (fun ((_, parent, _, _) as n) ->
        match parent with
        | Some p when Hashtbl.mem known p ->
            Hashtbl.add children p n;
            false
        | _ -> true)
      nodes
  in
  let rec build (id, _, name, _) =
    let kids = List.concat_map build (Hashtbl.find_all children id) in
    if name = "urs_pool_task" then kids else [ { sname = name; kids } ]
  in
  List.concat_map build roots

let test_pool_one_span_tree () =
  let inputs = List.init 8 Fun.id in
  let run ~domains =
    Context.set_seed 7;
    Span.set_tracing true;
    (* set_tracing clears any previous trace *)
    let root = Context.new_trace () in
    ignore
      (Context.with_current root (fun () ->
           Span.with_ ~name:"urs_cli" (fun () ->
               Pool.with_pool ~domains (fun pool ->
                   Pool.map pool
                     (fun x ->
                       Span.with_ ~name:"urs_point" (fun () ->
                           Ledger.record ~kind:"pool.task" ~wall_seconds:0.0 ();
                           x * x))
                     inputs))));
    let json = Span.trace_json () in
    Span.set_tracing false;
    Context.clear_seed ();
    (Context.trace_id_hex root, json)
  in
  Ledger.reset ();
  Ledger.set_memory true;
  Fun.protect ~finally:(fun () ->
      Span.set_tracing false;
      Context.clear_seed ();
      Ledger.reset ())
  @@ fun () ->
  let _, json1 = run ~domains:1 in
  Ledger.reset ();
  Ledger.set_memory true;
  let trace4, json4 = run ~domains:4 in
  let nodes4 = flatten_trace json4 in
  (* every span of the jobs=4 run — across all four domains — carries
     the one trace id minted by the submitter *)
  let trace_ids =
    List.sort_uniq compare (List.map (fun (_, _, _, t) -> t) nodes4)
  in
  Alcotest.(check (list string)) "single trace id" [ trace4 ] trace_ids;
  (* exactly one logical root: the urs_cli span, whose parent id points
     at the ambient root context (which owns no span) *)
  let roots4 = logical_roots nodes4 in
  Alcotest.(check int) "one connected tree" 1 (List.length roots4);
  (* structurally identical to the sequential run once the pool's
     wrapper spans are spliced out *)
  let shape1 = List.map canon (logical_roots (flatten_trace json1)) in
  let shape4 = List.map canon roots4 in
  Alcotest.(check bool) "same shape as jobs=1" true (shape1 = shape4);
  (match shape4 with
  | [ { sname = "urs_cli"; kids } ] ->
      Alcotest.(check int) "eight points" 8 (List.length kids);
      List.iter
        (fun k -> Alcotest.(check string) "point span" "urs_point" k.sname)
        kids
  | _ -> Alcotest.fail "expected a single urs_cli root");
  (* ledger records written on worker domains are stamped with the
     submitter's trace id *)
  let records =
    List.filter
      (fun r -> r.Ledger.kind = "pool.task")
      (Ledger.recent ~limit:100 ())
  in
  Alcotest.(check int) "eight task records" 8 (List.length records);
  List.iter
    (fun r ->
      Alcotest.(check (option string))
        "record carries submitter trace" (Some trace4) r.Ledger.trace_id)
    records

let () =
  Alcotest.run "urs_exec"
    [
      ( "pool",
        [
          Alcotest.test_case "ordered results" `Quick
            test_pool_map_matches_list_map;
          Alcotest.test_case "empty and single" `Quick test_pool_empty_and_single;
          Alcotest.test_case "earliest exception wins" `Quick
            test_pool_exception_propagation;
          Alcotest.test_case "map_result reifies" `Quick test_pool_map_result;
          Alcotest.test_case "nested batches" `Quick test_pool_nested_map;
          Alcotest.test_case "map_reduce fold order" `Quick test_pool_map_reduce;
          Alcotest.test_case "shutdown under load" `Quick test_pool_shutdown;
          Alcotest.test_case "width accessor" `Quick test_pool_domains;
          Alcotest.test_case "gc accounting across widths" `Quick
            test_pool_gc_accounting;
        ] );
      ( "obs concurrency",
        [
          Alcotest.test_case "metrics totals exact" `Quick
            test_metrics_concurrent_exact;
          Alcotest.test_case "ledger ring exact" `Quick
            test_ledger_concurrent_ring;
          Alcotest.test_case "qr sweep counter exact" `Quick
            test_qr_sweep_counter_concurrent_exact;
        ] );
      ( "cache",
        [
          Alcotest.test_case "hit/miss counters" `Quick
            test_cache_hit_miss_counters;
          Alcotest.test_case "LRU eviction" `Quick test_cache_lru_eviction;
          Alcotest.test_case "exceptions not cached" `Quick
            test_cache_exception_not_cached;
          Alcotest.test_case "first insert wins" `Quick
            test_cache_concurrent_first_insert_wins;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "sweep identical across widths" `Slow
            test_sweep_identical_across_widths;
          Alcotest.test_case "replicate identical across widths" `Slow
            test_replicate_identical_across_widths;
          Alcotest.test_case "solve cache reuse" `Slow
            test_solve_cache_reuses_result;
          Alcotest.test_case "cache key exactness" `Quick
            test_solve_cache_key_distinguishes_models;
        ] );
      ( "tracing",
        [
          Alcotest.test_case "one span tree across widths" `Quick
            test_pool_one_span_tree;
        ] );
    ]
