(* Tests for the observability layer: metric registry semantics
   (counters, gauges, histograms, label canonicalization, reset),
   span timing and trace trees under a deterministic clock, the
   Prometheus and JSON exporters (golden outputs), and a regression
   pinning the metrics recorded by a spectral solve of the paper's
   model. *)

module Metrics = Urs_obs.Metrics
module Span = Urs_obs.Span
module Export = Urs_obs.Export
module Json = Urs_obs.Json

let check_float ?(tol = 1e-9) msg expected actual =
  if abs_float (expected -. actual) > tol then
    Alcotest.failf "%s: expected %.12g, got %.12g" msg expected actual

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let check_contains msg hay needle =
  if not (contains hay needle) then
    Alcotest.failf "%s: %S not found in %S" msg needle hay

type hsnap = {
  counts : int array;
  count : int;
  sum : float;
  mean : float;
  stddev : float;
}

let find_histogram snap name =
  match
    List.find_opt (fun e -> e.Metrics.name = name && e.Metrics.labels = []) snap
  with
  | Some { Metrics.data = Metrics.Histogram_value h; _ } ->
      { counts = h.counts; count = h.count; sum = h.sum; mean = h.mean;
        stddev = h.stddev }
  | _ -> Alcotest.failf "missing histogram %s" name

(* ---- counters ---- *)

let test_counter_semantics () =
  let r = Metrics.create () in
  let c = Metrics.counter ~registry:r "frobs_total" in
  check_float "starts at zero" 0.0 (Metrics.counter_value c);
  Metrics.inc c;
  Metrics.inc ~by:2.5 c;
  check_float "accumulates" 3.5 (Metrics.counter_value c);
  (match Metrics.inc ~by:(-1.0) c with
  | () -> Alcotest.fail "negative increment should raise"
  | exception Invalid_argument _ -> ());
  check_float "unchanged after bad inc" 3.5 (Metrics.counter_value c)

let test_registration_idempotent () =
  let r = Metrics.create () in
  let a = Metrics.counter ~registry:r "calls_total" in
  let b = Metrics.counter ~registry:r "calls_total" in
  Metrics.inc a;
  Metrics.inc b;
  (* both handles address the same underlying metric *)
  check_float "shared" 2.0 (Metrics.counter_value a);
  (* re-registering under a different kind is an error *)
  (match Metrics.gauge ~registry:r "calls_total" with
  | _ -> Alcotest.fail "kind mismatch should raise"
  | exception Invalid_argument _ -> ())

let test_label_canonicalization () =
  let r = Metrics.create () in
  let a =
    Metrics.counter ~registry:r ~labels:[ ("b", "2"); ("a", "1") ] "l_total"
  in
  let b =
    Metrics.counter ~registry:r ~labels:[ ("a", "1"); ("b", "2") ] "l_total"
  in
  Metrics.inc a;
  Metrics.inc b;
  check_float "label order irrelevant" 2.0 (Metrics.counter_value a);
  check_float "lookup by either order" 2.0
    (Option.get (Metrics.value ~registry:r ~labels:[ ("b", "2"); ("a", "1") ]
                   "l_total"))

let test_invalid_name () =
  let r = Metrics.create () in
  match Metrics.counter ~registry:r "1bad name" with
  | _ -> Alcotest.fail "invalid metric name should raise"
  | exception Invalid_argument _ -> ()

(* ---- gauges ---- *)

let test_gauge_semantics () =
  let r = Metrics.create () in
  let g = Metrics.gauge ~registry:r "temp" in
  check_float "starts at zero" 0.0 (Metrics.gauge_value g);
  Metrics.set g 5.0;
  Metrics.add g (-2.0);
  check_float "set/add" 3.0 (Metrics.gauge_value g);
  Metrics.set_max g 10.0;
  Metrics.set_max g 4.0;
  check_float "high-water mark" 10.0 (Metrics.gauge_value g)

(* ---- histograms ---- *)

let test_histogram_semantics () =
  let r = Metrics.create () in
  let h =
    Metrics.histogram ~registry:r ~buckets:[| 1.0; 2.0 |] "lat_seconds"
  in
  List.iter (Metrics.observe h) [ 0.5; 1.0; 1.5; 9.0 ];
  let v = find_histogram (Metrics.snapshot ~registry:r ()) "lat_seconds" in
  (* upper bounds are inclusive, Prometheus-style: 1.0 lands in le="1" *)
  Alcotest.(check (array int)) "per-bucket counts" [| 2; 1; 1 |] v.counts;
  Alcotest.(check int) "count" 4 v.count;
  check_float "sum" 12.0 v.sum;
  check_float "mean" 3.0 v.mean;
  (* sample stddev of {0.5, 1.0, 1.5, 9.0}: sqrt(48.5/3) *)
  check_float ~tol:1e-9 "stddev" (sqrt (48.5 /. 3.0)) v.stddev

let test_histogram_bad_buckets () =
  let r = Metrics.create () in
  (match Metrics.histogram ~registry:r ~buckets:[||] "e_seconds" with
  | _ -> Alcotest.fail "empty buckets should raise"
  | exception Invalid_argument _ -> ());
  match Metrics.histogram ~registry:r ~buckets:[| 2.0; 1.0 |] "u_seconds" with
  | _ -> Alcotest.fail "unsorted buckets should raise"
  | exception Invalid_argument _ -> ()

(* ---- reset ---- *)

let test_reset_keeps_handles () =
  let r = Metrics.create () in
  let c = Metrics.counter ~registry:r "r_total" in
  let g = Metrics.gauge ~registry:r "r_gauge" in
  let h = Metrics.histogram ~registry:r ~buckets:[| 1.0 |] "r_seconds" in
  Metrics.inc ~by:7.0 c;
  Metrics.set g 3.0;
  Metrics.observe h 0.5;
  Metrics.reset ~registry:r ();
  check_float "counter zeroed" 0.0 (Metrics.counter_value c);
  check_float "gauge zeroed" 0.0 (Metrics.gauge_value g);
  let v = find_histogram (Metrics.snapshot ~registry:r ()) "r_seconds" in
  Alcotest.(check int) "histogram emptied" 0 v.count;
  (* stale handles keep working after reset *)
  Metrics.inc c;
  check_float "handle alive" 1.0 (Metrics.counter_value c)

let test_value_lookup () =
  let r = Metrics.create () in
  let c = Metrics.counter ~registry:r "v_total" in
  Metrics.inc c;
  let _ = Metrics.histogram ~registry:r ~buckets:[| 1.0 |] "v_seconds" in
  Alcotest.(check (option (float 1e-12)))
    "counter" (Some 1.0)
    (Metrics.value ~registry:r "v_total");
  Alcotest.(check (option (float 1e-12)))
    "histogram is None" None
    (Metrics.value ~registry:r "v_seconds");
  Alcotest.(check (option (float 1e-12)))
    "absent is None" None
    (Metrics.value ~registry:r "nope_total")

(* ---- spans ---- *)

let with_fake_clock f =
  let t = ref 0.0 in
  Span.set_clock (fun () -> !t);
  Fun.protect
    ~finally:(fun () ->
      Span.use_default_clock ();
      Span.set_tracing false)
    (fun () -> f t)

let test_span_records_duration () =
  with_fake_clock @@ fun t ->
  let r = Metrics.create () in
  let result =
    Span.with_ ~registry:r ~name:"outer" (fun () ->
        t := !t +. 1.0;
        Span.with_ ~registry:r ~name:"inner" (fun () ->
            t := !t +. 0.25;
            42))
  in
  Alcotest.(check int) "result threaded through" 42 result;
  let snap = Metrics.snapshot ~registry:r () in
  let outer = find_histogram snap "outer_seconds" in
  let inner = find_histogram snap "inner_seconds" in
  check_float "outer duration" 1.25 outer.sum;
  check_float "inner duration" 0.25 inner.sum;
  Alcotest.(check int) "one observation each" 1 outer.count;
  Alcotest.(check int) "one observation each" 1 inner.count

let test_span_exception_safe () =
  with_fake_clock @@ fun t ->
  let r = Metrics.create () in
  (try
     Span.with_ ~registry:r ~name:"boom" (fun () ->
         t := !t +. 0.5;
         failwith "bang")
   with Failure _ -> ());
  let v = find_histogram (Metrics.snapshot ~registry:r ()) "boom_seconds" in
  Alcotest.(check int) "recorded despite raise" 1 v.count;
  check_float "duration" 0.5 v.sum

let test_span_trace_tree () =
  with_fake_clock @@ fun t ->
  let r = Metrics.create () in
  Span.set_tracing true;
  Span.with_ ~registry:r ~name:"root" (fun () ->
      t := !t +. 1.0;
      Span.with_ ~registry:r ~name:"child"
        ~labels:[ ("stage", "x") ]
        (fun () -> t := !t +. 0.5));
  let trace = Span.trace_json () in
  check_contains "root span" trace "\"name\":\"root\"";
  check_contains "nested child" trace
    "\"children\":[{\"name\":\"child\"";
  check_contains "child labels" trace "\"labels\":{\"stage\":\"x\"}";
  check_contains "nothing dropped" trace "\"dropped\":0";
  (* disabling tracing clears nothing; re-enabling starts fresh *)
  Span.set_tracing false;
  Span.set_tracing true;
  check_contains "cleared on enable" (Span.trace_json ()) "\"spans\":[]"

let test_tracing_disabled_still_measures () =
  with_fake_clock @@ fun t ->
  let r = Metrics.create () in
  Alcotest.(check bool) "tracing off by default" false (Span.tracing_enabled ());
  Span.with_ ~registry:r ~name:"quiet" (fun () -> t := !t +. 2.0);
  let v = find_histogram (Metrics.snapshot ~registry:r ()) "quiet_seconds" in
  check_float "metric recorded without tracing" 2.0 v.sum;
  check_contains "no trace collected" (Span.trace_json ()) "\"spans\":[]"

(* ---- JSON serializer ---- *)

let test_json_render () =
  let check msg expected v =
    Alcotest.(check string) msg expected (Json.to_string v)
  in
  check "escaping" {|"a\"b\\c\nd"|} (Json.String "a\"b\\c\nd");
  check "control chars" {|"\u0001"|} (Json.String "\001");
  check "non-finite floats are null" "null" (Json.Float nan);
  check "round-trip float" "0.1" (Json.Float 0.1);
  check "list" "[1,true,null]" (Json.List [ Json.Int 1; Json.Bool true; Json.Null ]);
  check "object" {|{"a":1,"b":[]}|}
    (Json.Obj [ ("a", Json.Int 1); ("b", Json.List []) ])

(* ---- exporters ---- *)

let golden_registry () =
  let r = Metrics.create () in
  let c = Metrics.counter ~registry:r ~help:"Total frobs" "frobs_total" in
  Metrics.inc ~by:3.0 c;
  let g =
    Metrics.gauge ~registry:r ~help:"Temperature"
      ~labels:[ ("site", "lab") ]
      "temp"
  in
  Metrics.set g 1.5;
  let h =
    Metrics.histogram ~registry:r ~help:"Latency" ~buckets:[| 1.0; 2.0 |]
      "lat_seconds"
  in
  List.iter (Metrics.observe h) [ 0.5; 1.5; 9.0 ];
  r

let test_prometheus_golden () =
  let expected =
    "# HELP frobs_total Total frobs\n\
     # TYPE frobs_total counter\n\
     frobs_total 3\n\
     # HELP lat_seconds Latency\n\
     # TYPE lat_seconds histogram\n\
     lat_seconds_bucket{le=\"1\"} 1\n\
     lat_seconds_bucket{le=\"2\"} 2\n\
     lat_seconds_bucket{le=\"+Inf\"} 3\n\
     lat_seconds_sum 11\n\
     lat_seconds_count 3\n\
     # HELP temp Temperature\n\
     # TYPE temp gauge\n\
     temp{site=\"lab\"} 1.5\n"
  in
  Alcotest.(check string) "prometheus text" expected
    (Export.prometheus (Metrics.snapshot ~registry:(golden_registry ()) ()))

let test_prometheus_label_escaping () =
  let r = Metrics.create () in
  let c =
    Metrics.counter ~registry:r ~labels:[ ("p", "a\"b\\c\nd") ] "esc_total"
  in
  Metrics.inc c;
  check_contains "escaped label value"
    (Export.prometheus (Metrics.snapshot ~registry:r ()))
    {|esc_total{p="a\"b\\c\nd"} 1|}

let test_json_golden () =
  let r = Metrics.create () in
  Metrics.inc (Metrics.counter ~registry:r "hits_total");
  Alcotest.(check string)
    "json export"
    {|{"metrics":[{"name":"hits_total","type":"counter","value":1}]}|}
    (Export.json (Metrics.snapshot ~registry:r ()));
  (* histogram buckets render cumulative, like the Prometheus text *)
  let j = Export.json (Metrics.snapshot ~registry:(golden_registry ()) ()) in
  check_contains "cumulative buckets" j
    {|"buckets":[{"le":1,"count":1},{"le":2,"count":2},{"le":"+Inf","count":3}]|};
  check_contains "welford summary" j {|"mean":3.6666666666666665|}

(* ---- JSON parser ---- *)

let test_json_parse_roundtrip () =
  let samples =
    [
      Json.Null;
      Json.Bool true;
      Json.Int (-42);
      Json.Float 0.1;
      Json.String "a\"b\\c\nd\001";
      Json.List [ Json.Int 1; Json.Bool false; Json.Null ];
      Json.Obj
        [ ("a", Json.Int 1); ("b", Json.List [ Json.Float 2.5 ]);
          ("nested", Json.Obj [ ("x", Json.String "y") ]) ];
    ]
  in
  List.iter
    (fun v ->
      let s = Json.to_string v in
      match Json.of_string s with
      | Ok v' ->
          Alcotest.(check string)
            ("round-trip of " ^ s) s (Json.to_string v')
      | Error e -> Alcotest.failf "parse of %s failed: %s" s e)
    samples

let test_json_parse_errors () =
  let bad = [ ""; "{"; "[1,]"; "{\"a\":}"; "tru"; "1 2"; "\"unterminated" ] in
  List.iter
    (fun s ->
      match Json.of_string s with
      | Ok _ -> Alcotest.failf "parse of %S should fail" s
      | Error _ -> ())
    bad

let test_json_accessors () =
  match Json.of_string {|{"a":1,"b":2.5,"c":"x"}|} with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok v ->
      Alcotest.(check (option (float 1e-12)))
        "int member" (Some 1.0)
        (Option.bind (Json.member "a" v) Json.to_float_opt);
      Alcotest.(check (option (float 1e-12)))
        "float member" (Some 2.5)
        (Option.bind (Json.member "b" v) Json.to_float_opt);
      Alcotest.(check (option string))
        "string member" (Some "x")
        (Option.bind (Json.member "c" v) Json.to_string_opt);
      Alcotest.(check bool)
        "absent member" true
        (Json.member "zz" v = None)

(* ---- skip_zero and the degenerate-summary guard ---- *)

let test_skip_zero () =
  let r = Metrics.create () in
  let live = Metrics.counter ~registry:r "live_total" in
  Metrics.inc live;
  let _idle = Metrics.counter ~registry:r "idle_total" in
  let _empty = Metrics.histogram ~registry:r ~buckets:[| 1.0 |] "e_seconds" in
  let _zero_gauge = Metrics.gauge ~registry:r "z_gauge" in
  let snap = Metrics.snapshot ~registry:r () in
  let full = Export.prometheus snap in
  check_contains "full keeps idle counter" full "idle_total 0";
  let trimmed = Export.prometheus ~skip_zero:true snap in
  check_contains "skip_zero keeps live series" trimmed "live_total 1";
  if contains trimmed "idle_total" then
    Alcotest.fail "skip_zero should drop zero counters";
  if contains trimmed "e_seconds" then
    Alcotest.fail "skip_zero should drop empty histograms";
  if contains trimmed "z_gauge" then
    Alcotest.fail "skip_zero should drop zero gauges";
  let j = Export.json ~skip_zero:true snap in
  check_contains "json skip_zero keeps live" j "live_total";
  if contains j "idle_total" then
    Alcotest.fail "json skip_zero should drop zero counters"

(* pin the exported JSON for degenerate Welford summaries: no
   observations, one observation, and an observed infinity must all
   yield finite (zero) mean/stddev *)
let test_degenerate_summary_json () =
  let histogram_json r =
    match
      Json.member "metrics" (Export.json_value (Metrics.snapshot ~registry:r ()))
    with
    | Some (Json.List [ entry ]) -> entry
    | _ -> Alcotest.fail "expected exactly one metric"
  in
  let r0 = Metrics.create () in
  let _ = Metrics.histogram ~registry:r0 ~buckets:[| 1.0 |] "d_seconds" in
  Alcotest.(check string)
    "count=0 pins to zeros"
    {|{"name":"d_seconds","type":"histogram","count":0,"sum":0,"mean":0,"stddev":0,"buckets":[{"le":1,"count":0},{"le":"+Inf","count":0}]}|}
    (Json.to_string (histogram_json r0));
  let r1 = Metrics.create () in
  let h1 = Metrics.histogram ~registry:r1 ~buckets:[| 1.0 |] "d_seconds" in
  Metrics.observe h1 0.5;
  Alcotest.(check string)
    "count=1 has zero stddev"
    {|{"name":"d_seconds","type":"histogram","count":1,"sum":0.5,"mean":0.5,"stddev":0,"buckets":[{"le":1,"count":1},{"le":"+Inf","count":1}]}|}
    (Json.to_string (histogram_json r1));
  let ri = Metrics.create () in
  let hi = Metrics.histogram ~registry:ri ~buckets:[| 1.0 |] "d_seconds" in
  Metrics.observe hi infinity;
  let j = Json.to_string (histogram_json ri) in
  check_contains "observed inf clamps mean" j {|"mean":0|};
  check_contains "observed inf clamps stddev" j {|"stddev":0|};
  if contains j "inf" || contains j "nan" then
    Alcotest.failf "non-finite value leaked into JSON: %s" j

(* ---- ledger ---- *)

module Ledger = Urs_obs.Ledger

let with_clean_ledger f =
  Ledger.reset ();
  Fun.protect ~finally:Ledger.reset f

let sample_record () =
  Ledger.record ~kind:"solver.evaluate" ~strategy:"exact"
    ~params:[ ("servers", Json.Int 5); ("lambda", Json.Float 4.0) ]
    ~wall_seconds:0.012
    ~summary:[ ("residual", Json.Float 6.1e-16) ]
    ~gauges:[ ("urs_spectral_dominant_z", 0.8009) ]
    ()

let test_ledger_inactive_noop () =
  with_clean_ledger @@ fun () ->
  Alcotest.(check bool) "inactive by default" false (Ledger.active ());
  sample_record ();
  Alcotest.(check int) "no records buffered" 0 (List.length (Ledger.recent ()))

let test_ledger_file_roundtrip () =
  with_clean_ledger @@ fun () ->
  let path = Filename.temp_file "urs_ledger" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Ledger.open_file ~truncate:true path;
      sample_record ();
      Ledger.record ~kind:"sweep.point" ~outcome:"dropped" ~wall_seconds:0.5 ();
      Ledger.close ();
      match
        Ledger.fold_file path ~init:[] ~f:(fun acc r -> r :: acc)
        |> Result.map (fun (rs, stats) -> (List.rev rs, stats.Ledger.malformed))
      with
      | Error e -> Alcotest.failf "fold_file: %s" e
      | Ok ([ a; b ], 0) ->
          Alcotest.(check int) "seq stamps" 1 a.Ledger.seq;
          Alcotest.(check int) "seq stamps" 2 b.Ledger.seq;
          Alcotest.(check string) "kind" "solver.evaluate" a.Ledger.kind;
          Alcotest.(check (option string))
            "strategy" (Some "exact") a.Ledger.strategy;
          check_float "wall" 0.012 a.Ledger.wall_seconds;
          Alcotest.(check string) "default outcome" "ok" a.Ledger.outcome;
          Alcotest.(check string) "explicit outcome" "dropped" b.Ledger.outcome;
          check_float "gauge snapshot" 0.8009
            (List.assoc "urs_spectral_dominant_z" a.Ledger.gauges);
          (* numbers without a fractional part come back as Json.Int;
             to_float_opt absorbs the difference *)
          (match Json.to_float_opt (List.assoc "lambda" a.Ledger.params) with
          | Some l -> check_float "param" 4.0 l
          | None -> Alcotest.fail "lambda param not numeric")
      | Ok (rs, malformed) ->
          Alcotest.failf "expected 2 records, 0 malformed; got %d, %d"
            (List.length rs) malformed)

let test_ledger_memory_ring () =
  with_clean_ledger @@ fun () ->
  Ledger.set_memory true;
  sample_record ();
  sample_record ();
  sample_record ();
  let rs = Ledger.recent ~limit:2 () in
  Alcotest.(check int) "limit respected" 2 (List.length rs);
  (* oldest-first within the limit window: the two most recent *)
  Alcotest.(check (list int))
    "most recent, oldest first" [ 2; 3 ]
    (List.map (fun r -> r.Ledger.seq) rs);
  Ledger.set_memory false;
  Alcotest.(check int) "disabling clears" 0 (List.length (Ledger.recent ()))

let test_ledger_concurrent_reads () =
  (* regression: the ring is read by the HTTP thread while the solver
     thread appends; without the internal mutex a preempted Queue.push
     could tear the traversal in [recent] *)
  with_clean_ledger @@ fun () ->
  Ledger.set_memory true;
  let appends = 2_000 in
  let writer =
    Thread.create
      (fun () ->
        for _ = 1 to appends do
          sample_record ();
          Thread.yield ()
        done)
      ()
  in
  let reads = ref 0 in
  while Thread.yield (); !reads < 500 do
    incr reads;
    let rs = Ledger.recent () in
    (* every snapshot must be internally consistent: strictly
       increasing seq, no duplicates or holes from a torn queue *)
    ignore
      (List.fold_left
         (fun prev r ->
           if r.Ledger.seq <= prev then
             Alcotest.failf "torn snapshot: seq %d after %d" r.Ledger.seq prev;
           r.Ledger.seq)
         0 rs)
  done;
  Thread.join writer;
  let rs = Ledger.recent () in
  let last = List.nth rs (List.length rs - 1) in
  Alcotest.(check int) "all appends arrived" appends last.Ledger.seq

let test_ledger_malformed_line () =
  (* a corrupt line mid-file, not only a torn tail, is skipped and
     counted; the records on both sides of it survive *)
  with_clean_ledger @@ fun () ->
  let path = Filename.temp_file "urs_ledger" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Ledger.open_file ~truncate:true path;
      sample_record ();
      Ledger.close ();
      let oc = open_out_gen [ Open_append ] 0o644 path in
      output_string oc "not json\n";
      close_out oc;
      Ledger.open_file path;
      sample_record ();
      Ledger.close ();
      match
        Ledger.fold_file path ~init:[] ~f:(fun acc r -> r.Ledger.seq :: acc)
      with
      | Error e -> Alcotest.failf "fold_file: %s" e
      | Ok (seqs, stats) ->
          Alcotest.(check (list int)) "both records kept" [ 1; 2 ]
            (List.rev seqs);
          Alcotest.(check int) "garbage line counted" 1 stats.Ledger.malformed)

(* ---- HTTP server ---- *)

module Http = Urs_obs.Http

let http_request ?(meth = "GET") ~port path =
  let addr = Unix.ADDR_INET (Unix.inet_addr_loopback, port) in
  let sock = Unix.socket (Unix.domain_of_sockaddr addr) Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close sock with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect sock addr;
      let req = Printf.sprintf "%s %s HTTP/1.0\r\n\r\n" meth path in
      let _ = Unix.write_substring sock req 0 (String.length req) in
      let buf = Buffer.create 1024 in
      let chunk = Bytes.create 1024 in
      let rec drain () =
        let n = Unix.read sock chunk 0 (Bytes.length chunk) in
        if n > 0 then begin
          Buffer.add_subbytes buf chunk 0 n;
          drain ()
        end
      in
      drain ();
      Buffer.contents buf)

let http_get = http_request ~meth:"GET"

let test_http_smoke () =
  let routes =
    [
      ("/ping", fun _q -> Http.respond "pong\n");
      ("/boom", fun _q -> failwith "handler exploded");
      ( "/json",
        fun _q ->
          Http.respond ~content_type:"application/json" {|{"ok":true}|} );
      ( "/echo",
        fun q ->
          Http.respond
            (String.concat ";"
               (List.map (fun (k, v) -> k ^ "=" ^ v) q)) );
    ]
  in
  let server = Http.start ~port:0 ~routes () in
  Fun.protect
    ~finally:(fun () -> Http.stop server)
    (fun () ->
      let port = Http.port server in
      if port <= 0 then Alcotest.failf "bad ephemeral port %d" port;
      let ping = http_get ~port "/ping" in
      check_contains "200 status line" ping "HTTP/1.0 200";
      check_contains "body" ping "pong";
      (* query strings are stripped before route matching and handed to
         the handler, percent-decoded *)
      check_contains "query string stripped for routing"
        (http_get ~port "/ping?x=1")
        "pong";
      check_contains "query parsed and decoded"
        (http_get ~port "/echo?a=1&b=hello%20world&flag&c=x+y")
        "a=1;b=hello world;flag=;c=x y";
      let missing = http_get ~port "/nope" in
      check_contains "404 status" missing "HTTP/1.0 404";
      check_contains "404 lists routes" missing "/ping";
      let boom = http_get ~port "/boom" in
      check_contains "handler exception becomes 500" boom "HTTP/1.0 500";
      check_contains "500 carries message" boom "handler exploded";
      let json = http_get ~port "/json" in
      check_contains "content-type honoured" json
        "Content-Type: application/json";
      (* HEAD: same headers as GET (including the GET body's length),
         empty body *)
      let head = http_request ~meth:"HEAD" ~port "/ping" in
      check_contains "HEAD gets 200" head "HTTP/1.0 200";
      check_contains "HEAD advertises GET length" head "Content-Length: 5";
      if
        let heads_end =
          String.length head >= 4
          && String.sub head (String.length head - 4) 4 = "\r\n\r\n"
        in
        not heads_end
      then Alcotest.failf "HEAD response carries a body: %S" head;
      let post = http_request ~meth:"POST" ~port "/ping" in
      check_contains "non-GET/HEAD method gets 405" post "HTTP/1.0 405";
      (* sequential requests on the single accept thread keep working *)
      check_contains "server still alive" (http_get ~port "/ping") "pong")

let test_http_metrics_route () =
  (* serve a live registry through the same route shape the CLI uses *)
  let r = Metrics.create () in
  Metrics.inc ~by:3.0 (Metrics.counter ~registry:r "served_total");
  let routes =
    [
      ( "/metrics",
        fun _q ->
          Http.respond
            (Export.prometheus (Metrics.snapshot ~registry:r ())) );
    ]
  in
  let server = Http.start ~port:0 ~routes () in
  Fun.protect
    ~finally:(fun () -> Http.stop server)
    (fun () ->
      let body = http_get ~port:(Http.port server) "/metrics" in
      check_contains "prometheus exposition served" body "served_total 3")

(* ---- trace contexts ---- *)

module Context = Urs_obs.Context

let with_seeded seed f =
  Context.set_seed seed;
  Fun.protect ~finally:Context.clear_seed f

let test_context_determinism () =
  let draw () =
    with_seeded 42 @@ fun () ->
    let a = Context.new_trace () in
    let b = Context.child a in
    (Context.trace_id_hex a, Context.span_id_hex a, Context.span_id_hex b)
  in
  let first = draw () and second = draw () in
  if first <> second then
    Alcotest.fail "equal seeds should give equal id sequences";
  let ta, sa, sb = first in
  Alcotest.(check int) "trace id width" 32 (String.length ta);
  Alcotest.(check int) "span id width" 16 (String.length sa);
  if sa = sb then Alcotest.fail "child must get a fresh span id";
  (* different seeds diverge *)
  Context.set_seed 43;
  let other = Context.new_trace () in
  Context.clear_seed ();
  if Context.trace_id_hex other = ta then
    Alcotest.fail "different seeds should give different traces"

let test_traceparent_golden () =
  (* the W3C spec's own example value *)
  let tp = "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01" in
  (match Context.of_traceparent tp with
  | Error e -> Alcotest.failf "spec example rejected: %s" e
  | Ok c ->
      Alcotest.(check string)
        "trace id" "0af7651916cd43dd8448eb211c80319c"
        (Context.trace_id_hex c);
      Alcotest.(check string)
        "span id" "b7ad6b7169203331" (Context.span_id_hex c);
      Alcotest.(check bool) "sampled" true c.Context.sampled;
      Alcotest.(check string) "round-trip" tp (Context.to_traceparent c));
  match Context.of_traceparent "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-00" with
  | Ok c -> Alcotest.(check bool) "not sampled" false c.Context.sampled
  | Error e -> Alcotest.failf "flags 00 rejected: %s" e

let test_traceparent_rejections () =
  List.iter
    (fun (label, tp) ->
      match Context.of_traceparent tp with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "%s should be rejected: %S" label tp)
    [
      ("empty", "");
      ("too few fields", "00-abc");
      ("uppercase trace",
       "00-0AF7651916CD43DD8448EB211C80319C-b7ad6b7169203331-01");
      ("short trace", "00-0af7651916cd43dd8448eb211c8031-b7ad6b7169203331-01");
      ("short span", "00-0af7651916cd43dd8448eb211c80319c-b7ad6b71692033-01");
      ("non-hex", "00-0af7651916cd43dd8448eb211c80319z-b7ad6b7169203331-01");
      ("version ff", "ff-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01");
      ("zero trace", "00-00000000000000000000000000000000-b7ad6b7169203331-01");
      ("zero span", "00-0af7651916cd43dd8448eb211c80319c-0000000000000000-01");
      ("version 00 extra field",
       "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01-extra");
    ];
  (* a future version may carry extra fields *)
  match
    Context.of_traceparent
      "01-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01-future"
  with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "future version with extras rejected: %s" e

let traceparent_roundtrip_prop =
  QCheck2.Test.make ~name:"traceparent round-trip" ~count:200
    QCheck2.Gen.(triple (pair int64 int64) int64 bool)
    (fun ((hi, lo), span, sampled) ->
      (* all-zero ids are invalid by construction in new_trace; mirror
         that here rather than testing the invalid encodings *)
      let hi = if hi = 0L && lo = 0L then 1L else hi in
      let span = if span = 0L then 1L else span in
      let c = { Context.trace_hi = hi; trace_lo = lo; span_id = span; sampled } in
      match Context.of_traceparent (Context.to_traceparent c) with
      | Ok c' -> c = c'
      | Error _ -> false)

let test_context_ambient () =
  Alcotest.(check bool) "empty by default" true (Context.current () = None);
  let a = Context.new_trace () in
  let b = Context.child a in
  Context.with_current a (fun () ->
      (match Context.current () with
      | Some c when c = a -> ()
      | _ -> Alcotest.fail "with_current should install");
      Context.with_current b (fun () ->
          match Context.current () with
          | Some c when c = b -> ()
          | _ -> Alcotest.fail "nested install");
      (match Context.current () with
      | Some c when c = a -> ()
      | _ -> Alcotest.fail "nested exit should restore");
      (* capture/restore round-trips, including None *)
      let saved = Context.capture () in
      Context.restore None (fun () ->
          Alcotest.(check bool) "restored to None" true
            (Context.current () = None));
      Context.restore saved (fun () ->
          match Context.current () with
          | Some c when c = a -> ()
          | _ -> Alcotest.fail "restore saved"));
  Alcotest.(check bool) "clean after" true (Context.current () = None);
  (* the previous value comes back even on raise *)
  (try
     Context.with_current a (fun () -> failwith "boom")
   with Failure _ -> ());
  Alcotest.(check bool) "restored on raise" true (Context.current () = None)

let test_span_trace_ids () =
  let r = Metrics.create () in
  let clock = ref 0.0 in
  Span.set_clock (fun () -> !clock);
  Span.set_tracing true;
  Fun.protect
    ~finally:(fun () ->
      Span.use_default_clock ();
      Span.set_tracing false;
      Span.reset_trace ())
    (fun () ->
      with_seeded 7 @@ fun () ->
      Span.with_ ~registry:r ~name:"urs_outer" (fun () ->
          Span.with_ ~registry:r ~name:"urs_inner" (fun () -> clock := 1.0));
      match Json.of_string (Span.trace_json ()) with
      | Error e -> Alcotest.failf "trace does not parse: %s" e
      | Ok j -> (
          match Json.member "spans" j with
          | Some (Json.List [ outer ]) -> (
              let str k n =
                Option.bind (Json.member k n) Json.to_string_opt
              in
              let outer_trace = str "trace_id" outer in
              let outer_span = str "span_id" outer in
              Alcotest.(check bool) "trace id present" true (outer_trace <> None);
              (* no ambient context: the root span has no parent *)
              Alcotest.(check (option string))
                "root has no parent" None (str "parent_span_id" outer);
              match Json.member "children" outer with
              | Some (Json.List [ inner ]) ->
                  Alcotest.(check (option string))
                    "same trace" outer_trace (str "trace_id" inner);
                  Alcotest.(check (option string))
                    "inner parents onto outer" outer_span
                    (str "parent_span_id" inner)
              | _ -> Alcotest.fail "inner span missing")
          | _ -> Alcotest.fail "expected one root span"))

(* ---- ledger trace stamps (urs-ledger/2) ---- *)

let test_ledger_trace_stamps () =
  with_clean_ledger @@ fun () ->
  Ledger.set_memory true;
  let ctx = Context.new_trace () in
  (* explicit context *)
  Ledger.record ~context:ctx ~kind:"http.access" ~wall_seconds:0.001 ();
  (* ambient context *)
  Context.with_current ctx (fun () ->
      Ledger.record ~kind:"solver.evaluate" ~wall_seconds:0.002 ());
  (* no context at all *)
  Ledger.record ~kind:"bench.section" ~wall_seconds:0.003 ();
  match Ledger.recent () with
  | [ a; b; c ] ->
      Alcotest.(check (option string))
        "explicit trace id"
        (Some (Context.trace_id_hex ctx))
        a.Ledger.trace_id;
      Alcotest.(check (option string))
        "explicit span id"
        (Some (Context.span_id_hex ctx))
        a.Ledger.span_id;
      Alcotest.(check (option string))
        "ambient trace id"
        (Some (Context.trace_id_hex ctx))
        b.Ledger.trace_id;
      Alcotest.(check (option string)) "no context" None c.Ledger.trace_id;
      (* round-trip keeps the stamps and the v2 schema tag *)
      let j = Ledger.to_json a in
      check_contains "schema tag" (Json.to_string j) "urs-ledger/2";
      (match Ledger.of_json j with
      | Ok a' ->
          Alcotest.(check (option string))
            "stamps survive round-trip" a.Ledger.trace_id a'.Ledger.trace_id
      | Error e -> Alcotest.failf "v2 round-trip: %s" e)
  | rs -> Alcotest.failf "expected 3 records, got %d" (List.length rs)

let test_ledger_schema_compat () =
  (* v1 lines (no stamps) still parse; unknown schemas fail loudly *)
  let v1 =
    {|{"schema":"urs-ledger/1","seq":1,"time":0,"kind":"sweep.point","params":{},"wall_seconds":0.5,"outcome":"ok","summary":{},"gauges":{}}|}
  in
  (match Result.bind (Json.of_string v1) Ledger.of_json with
  | Ok r ->
      Alcotest.(check string) "v1 kind" "sweep.point" r.Ledger.kind;
      Alcotest.(check (option string)) "v1 has no stamps" None r.Ledger.trace_id
  | Error e -> Alcotest.failf "v1 line rejected: %s" e);
  let unknown =
    {|{"schema":"urs-ledger/9","seq":1,"time":0,"kind":"x","wall_seconds":0,"outcome":"ok"}|}
  in
  match Result.bind (Json.of_string unknown) Ledger.of_json with
  | Ok _ -> Alcotest.fail "unknown schema should be rejected"
  | Error e -> check_contains "error names the schema" e "urs-ledger/9"

(* ---- exporter escaping ---- *)

let test_export_escaping () =
  let r = Metrics.create () in
  Metrics.inc
    (Metrics.counter ~registry:r
       ~labels:[ ("route", "/timeline?series=\"x\\y\"\nz") ]
       ~help:"line one\nline two \\ backslash" "urs_esc_total");
  let out = Export.prometheus (Metrics.snapshot ~registry:r ()) in
  (* golden: backslash, double-quote and newline escaped in the label
     value; backslash and newline escaped in HELP text *)
  check_contains "label escaping" out
    {|urs_esc_total{route="/timeline?series=\"x\\y\"\nz"} 1|};
  check_contains "help escaping" out
    {|# HELP urs_esc_total line one\nline two \\ backslash|};
  (* the output must still be line-wise well formed: every line is a
     comment or a sample, no line split mid-value *)
  List.iter
    (fun line ->
      if line <> "" && line.[0] <> '#' && not (contains line " ") then
        Alcotest.failf "malformed exposition line: %S" line)
    (String.split_on_char '\n' out)

(* ---- HTTP request middleware ---- *)

let test_http_middleware () =
  with_clean_ledger @@ fun () ->
  Ledger.set_memory true;
  let routes = [ ("/ping", fun _q -> Http.respond "pong\n") ] in
  let server = Http.start ~port:0 ~routes () in
  Fun.protect
    ~finally:(fun () -> Http.stop server)
    (fun () ->
      let port = Http.port server in
      let requests_before route code =
        Option.value ~default:0.0
          (Metrics.value
             ~labels:[ ("route", route); ("code", code) ]
             "urs_http_requests_total")
      in
      let ok0 = requests_before "/ping" "200" in
      let missing0 = requests_before "unknown" "404" in
      let tp = "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01" in
      (match Http.request ~headers:[ ("traceparent", tp) ] ~port "/ping" with
      | Error e -> Alcotest.failf "request failed: %s" e
      | Ok (status, headers, body) ->
          Alcotest.(check int) "status" 200 status;
          Alcotest.(check string) "body" "pong\n" body;
          (match List.assoc_opt "traceparent" headers with
          | Some t ->
              (* the response continues the inbound trace with a fresh
                 span id *)
              check_contains "same trace continued" t
                "00-0af7651916cd43dd8448eb211c80319c-";
              if contains t "b7ad6b7169203331" then
                Alcotest.fail "span id should be fresh, not the parent's"
          | None -> Alcotest.fail "traceparent response header missing");
          (match List.assoc_opt "x-request-id" headers with
          | Some id -> Alcotest.(check int) "request id width" 16 (String.length id)
          | None -> Alcotest.fail "x-request-id response header missing"));
      ignore (Http.request ~port "/nope");
      check_float "route counter incremented" (ok0 +. 1.0)
        (requests_before "/ping" "200");
      check_float "unknown route collapses" (missing0 +. 1.0)
        (requests_before "unknown" "404");
      (match
         Metrics.value ~labels:[] "urs_http_in_flight_requests"
       with
      | Some v -> check_float "in-flight settles to zero" 0.0 v
      | None -> Alcotest.fail "in-flight gauge missing");
      (* one access-log record per request, stamped with the trace *)
      let access =
        List.filter
          (fun r -> r.Ledger.kind = "http.access")
          (Ledger.recent ())
      in
      Alcotest.(check int) "two access records" 2 (List.length access);
      match access with
      | [ ping; nope ] ->
          Alcotest.(check (option string))
            "inbound trace id stamped"
            (Some "0af7651916cd43dd8448eb211c80319c")
            ping.Ledger.trace_id;
          Alcotest.(check string) "error outcome" "error" nope.Ledger.outcome;
          (match List.assoc_opt "status" nope.Ledger.summary with
          | Some (Json.Int 404) -> ()
          | _ -> Alcotest.fail "status in summary")
      | _ -> assert false)

(* ---- timelines ---- *)

module Timeline = Urs_obs.Timeline
module Progress = Urs_obs.Progress

(* sample times step by 0.75 so no sample ever lands exactly on a
   power-of-two coverage boundary (0.75 * k = 2^m * capacity has no
   integer solution): boundary-exact times are reserved for a final
   [finish] at the horizon, which closes into the last bucket instead
   of merging *)
let record_sawtooth s n =
  for i = 0 to n - 1 do
    Timeline.record s ~t:(0.75 *. float_of_int i) (float_of_int (i mod 7))
  done;
  Timeline.finish s ~t:(0.75 *. float_of_int n)

let test_timeline_bounded () =
  let r = Timeline.create () in
  let s = Timeline.series ~registry:r ~capacity:8 "urs_t_signal" in
  record_sawtooth s 1000;
  let snap = Timeline.snapshot_series s in
  let points = snap.Timeline.points in
  if List.length points > 8 then
    Alcotest.failf "capacity exceeded: %d points" (List.length points);
  let covered =
    List.fold_left (fun acc p -> acc +. p.Timeline.time_cov) 0.0 points
  in
  check_float ~tol:1e-9 "whole run covered" 750.0 covered;
  List.iter
    (fun p ->
      let mean = Timeline.point_mean p in
      if not (p.Timeline.vmin <= mean && mean <= p.Timeline.vmax) then
        Alcotest.failf "bucket %d: min %g <= mean %g <= max %g violated"
          p.Timeline.index p.Timeline.vmin mean p.Timeline.vmax;
      if p.Timeline.time_cov > snap.Timeline.width +. 1e-9 then
        Alcotest.failf "bucket %d covers more than its width" p.Timeline.index)
    points

let check_snapshots_equal msg (a : Timeline.snapshot) (b : Timeline.snapshot) =
  check_float (msg ^ ": t0") a.Timeline.t0 b.Timeline.t0;
  check_float (msg ^ ": width") a.Timeline.width b.Timeline.width;
  Alcotest.(check int)
    (msg ^ ": point count")
    (List.length a.Timeline.points)
    (List.length b.Timeline.points);
  List.iter2
    (fun (p : Timeline.point) (q : Timeline.point) ->
      Alcotest.(check int) (msg ^ ": index") p.Timeline.index q.Timeline.index;
      Alcotest.(check int) (msg ^ ": count") p.Timeline.count q.Timeline.count;
      check_float ~tol:1e-9 (msg ^ ": time_cov") p.Timeline.time_cov
        q.Timeline.time_cov;
      check_float ~tol:1e-9 (msg ^ ": area") p.Timeline.area q.Timeline.area;
      check_float ~tol:1e-9 (msg ^ ": sum_v") p.Timeline.sum_v q.Timeline.sum_v;
      check_float (msg ^ ": vmin") p.Timeline.vmin q.Timeline.vmin;
      check_float (msg ^ ": vmax") p.Timeline.vmax q.Timeline.vmax)
    a.Timeline.points b.Timeline.points

let test_timeline_growth_matches_coarsen () =
  (* the recorder's pairwise width-doubling and the snapshot-level
     coarsen use the same algebra: a capacity-4 recording of a signal
     equals the capacity-8 recording coarsened by 2 *)
  let r = Timeline.create () in
  let wide = Timeline.series ~registry:r ~capacity:8 "urs_t_wide" in
  let narrow = Timeline.series ~registry:r ~capacity:4 "urs_t_narrow" in
  record_sawtooth wide 16;
  record_sawtooth narrow 16;
  let wide2 = Timeline.coarsen ~factor:2 (Timeline.snapshot_series wide) in
  let narrow_snap = Timeline.snapshot_series narrow in
  check_snapshots_equal "doubling = coarsen" narrow_snap
    { wide2 with Timeline.s_name = narrow_snap.Timeline.s_name }

let test_timeline_coarsen_idempotent () =
  let r = Timeline.create () in
  let s = Timeline.series ~registry:r ~capacity:64 "urs_t_coarse" in
  record_sawtooth s 64;
  let snap = Timeline.snapshot_series s in
  let a = Timeline.coarsen ~factor:3 (Timeline.coarsen ~factor:2 snap) in
  let b = Timeline.coarsen ~factor:6 snap in
  check_snapshots_equal "coarsen composes" a b;
  check_snapshots_equal "factor 1 is the identity" snap
    (Timeline.coarsen ~factor:1 snap);
  Alcotest.check_raises "factor must be >= 1"
    (Invalid_argument "Timeline.coarsen: factor must be >= 1") (fun () ->
      ignore (Timeline.coarsen ~factor:0 snap))

let test_timeline_horizon_layout () =
  let r = Timeline.create () in
  let s =
    Timeline.series ~registry:r ~capacity:10 ~horizon:100.0 "urs_t_horizon"
  in
  Timeline.record s ~t:0.0 1.0;
  Timeline.record s ~t:50.0 3.0;
  Timeline.finish s ~t:100.0;
  let snap = Timeline.snapshot_series s in
  (* a run no longer than the horizon never merges: width stays fixed,
     including the boundary-exact final sample *)
  check_float "width = horizon / capacity" 10.0 snap.Timeline.width;
  let means = Timeline.mean_array snap in
  Alcotest.(check int) "dense grid to last bucket" 10 (Array.length means);
  check_float "held value integrated" 1.0 means.(0);
  check_float "level change lands mid-grid" 3.0 means.(7);
  (* clearing preserves the horizon-derived layout for the next rep *)
  Timeline.clear s;
  Timeline.record s ~t:0.0 2.0;
  Timeline.finish s ~t:100.0;
  check_float "width survives clear" 10.0
    (Timeline.snapshot_series s).Timeline.width

let test_timeline_pool_determinism () =
  (* the /timeline contents must not depend on --jobs: same seed, same
     buckets, whatever the pool width *)
  let cfg =
    {
      Urs_sim.Server_farm.servers = 3;
      lambda = 2.0;
      mu = 1.0;
      operative = Urs_prob.Distribution.exponential ~rate:0.1;
      inoperative = Urs_prob.Distribution.exponential ~rate:1.0;
      repair_crews = None;
    }
  in
  let run pool registry =
    ignore
      (Urs_sim.Replicate.run ?pool ~seed:5 ~replications:4 ~duration:500.0
         ~timeline_registry:registry cfg)
  in
  let r_seq = Timeline.create () in
  run None r_seq;
  let pool = Urs_exec.Pool.create ~name:"tl-test" ~domains:4 () in
  let r_par = Timeline.create () in
  Fun.protect
    ~finally:(fun () -> Urs_exec.Pool.shutdown pool)
    (fun () -> run (Some pool) r_par);
  let seq = Timeline.snapshot ~registry:r_seq () in
  let par = Timeline.snapshot ~registry:r_par () in
  Alcotest.(check int)
    "series count" (List.length seq) (List.length par);
  List.iter2
    (fun (a : Timeline.snapshot) (b : Timeline.snapshot) ->
      Alcotest.(check string) "name" a.Timeline.s_name b.Timeline.s_name;
      Alcotest.(check (list (pair string string)))
        "labels" a.Timeline.s_labels b.Timeline.s_labels;
      (* meta carries the owning domain id and may legitimately differ *)
      check_snapshots_equal a.Timeline.s_name a b)
    seq par;
  if seq = [] then Alcotest.fail "expected recorded timelines"

(* A plain reference recorder: the bucket algebra as first written, with
   no cached state — [Float.min]/[Float.max] on every sample and both
   ends of every interval indexed, [hi] first because indexing it may
   merge. [Timeline.record] and [Timeline.record_block] must leave
   exactly the buckets this leaves. *)
module Ref_recorder = struct
  type t = {
    capacity : int;
    initial_width : float;
    mutable t0 : float;
    mutable width : float;
    mutable used : int;
    time_cov : float array;
    area : float array;
    count : int array;
    sum_v : float array;
    vmin : float array;
    vmax : float array;
    mutable last : (float * float) option;
  }

  let clear r =
    r.t0 <- nan;
    r.width <- r.initial_width;
    r.used <- 0;
    r.last <- None;
    Array.fill r.time_cov 0 r.capacity 0.0;
    Array.fill r.area 0 r.capacity 0.0;
    Array.fill r.count 0 r.capacity 0;
    Array.fill r.sum_v 0 r.capacity 0.0;
    Array.fill r.vmin 0 r.capacity infinity;
    Array.fill r.vmax 0 r.capacity neg_infinity

  let create ~capacity ?horizon () =
    let initial_width =
      match horizon with
      | Some h when h > 0.0 -> h /. float_of_int capacity
      | _ -> nan
    in
    let r =
      {
        capacity;
        initial_width;
        t0 = nan;
        width = nan;
        used = 0;
        time_cov = Array.make capacity 0.0;
        area = Array.make capacity 0.0;
        count = Array.make capacity 0;
        sum_v = Array.make capacity 0.0;
        vmin = Array.make capacity infinity;
        vmax = Array.make capacity neg_infinity;
        last = None;
      }
    in
    clear r;
    r

  let grow r =
    let half = (r.used + 1) / 2 in
    for i = 0 to half - 1 do
      let a = 2 * i and b = (2 * i) + 1 in
      if a <> i then begin
        r.time_cov.(i) <- r.time_cov.(a);
        r.area.(i) <- r.area.(a);
        r.count.(i) <- r.count.(a);
        r.sum_v.(i) <- r.sum_v.(a);
        r.vmin.(i) <- r.vmin.(a);
        r.vmax.(i) <- r.vmax.(a)
      end;
      if b < r.capacity && b <> i then begin
        r.time_cov.(i) <- r.time_cov.(i) +. r.time_cov.(b);
        r.area.(i) <- r.area.(i) +. r.area.(b);
        r.count.(i) <- r.count.(i) + r.count.(b);
        r.sum_v.(i) <- r.sum_v.(i) +. r.sum_v.(b);
        r.vmin.(i) <- Float.min r.vmin.(i) r.vmin.(b);
        r.vmax.(i) <- Float.max r.vmax.(i) r.vmax.(b)
      end
    done;
    for i = half to r.used - 1 do
      r.time_cov.(i) <- 0.0;
      r.area.(i) <- 0.0;
      r.count.(i) <- 0;
      r.sum_v.(i) <- 0.0;
      r.vmin.(i) <- infinity;
      r.vmax.(i) <- neg_infinity
    done;
    r.used <- half;
    r.width <- r.width *. 2.0

  let touch r i v =
    if v < r.vmin.(i) then r.vmin.(i) <- v;
    if v > r.vmax.(i) then r.vmax.(i) <- v;
    r.used <- max r.used (i + 1)

  let rec index_for r t =
    let i = int_of_float ((t -. r.t0) /. r.width) in
    if i < r.capacity then max 0 i
    else if t -. r.t0 <= float_of_int r.capacity *. r.width then r.capacity - 1
    else begin
      grow r;
      index_for r t
    end

  let integrate r ~lo ~hi v =
    if hi > lo then begin
      let i1 = index_for r hi in
      let i0 = index_for r lo in
      for i = i0 to i1 do
        let b_lo = r.t0 +. (float_of_int i *. r.width) in
        let ov = Float.min hi (b_lo +. r.width) -. Float.max lo b_lo in
        if ov > 0.0 then begin
          r.time_cov.(i) <- r.time_cov.(i) +. ov;
          r.area.(i) <- r.area.(i) +. (ov *. v);
          touch r i v
        end
      done
    end

  let record r ~t v =
    if Float.is_finite t && Float.is_finite v then begin
      if Float.is_nan r.t0 then r.t0 <- t;
      if Float.is_nan r.width then r.width <- 1.0;
      let t = Float.max t r.t0 in
      (match r.last with
      | Some (lt, lv) -> integrate r ~lo:lt ~hi:t lv
      | None -> ());
      let t = match r.last with Some (lt, _) -> Float.max t lt | None -> t in
      let i = index_for r t in
      r.count.(i) <- r.count.(i) + 1;
      r.sum_v.(i) <- r.sum_v.(i) +. v;
      touch r i v;
      r.last <- Some (t, v)
    end

  let finish r ~t =
    match r.last with
    | Some (lt, lv) when Float.is_finite t && t > lt ->
        integrate r ~lo:lt ~hi:t lv;
        r.last <- Some (t, lv)
    | _ -> ()
end

type stream_op = Sample of float * float | Clear | Finish of float

(* A random stream for a series of [capacity] buckets over [horizon]:
   two phases split by a [Clear]. Each phase opens at a finite sample,
   wanders below the horizon (repeated, stale and non-finite samples
   included), puts one sample exactly on the final boundary, then runs
   past the horizon, which forces merges, and may end with a
   [Finish]. *)
let gen_stream ~horizon =
  let open QCheck2.Gen in
  let value =
    frequency
      [
        (6, map float_of_int (int_range 0 12));
        (2, float_range (-3.0) 3.0);
        (1, oneofl [ nan; infinity; neg_infinity ]);
      ]
  in
  let bad_time = oneofl [ nan; infinity; neg_infinity ] in
  (* (kind, fraction, value): 0-5 advance, 6 repeat, 7 stale, 8 a
     non-finite time, 9 a jump far past the horizon (suffix only) *)
  let step kinds = triple (int_range 0 kinds) (float_range 0.0 1.0) value in
  let phase =
    let* start = oneofl [ 0.0; 3.0; -2.5 ] in
    let* v0 = map float_of_int (int_range 0 12) in
    let* prefix = list_size (int_range 0 30) (step 8) in
    let* vb = value in
    let* suffix = list_size (int_range 0 30) (step 9) in
    let* bad = bad_time in
    let* finish = opt (float_range 0.0 1.0) in
    let now = ref start in
    let emit ~below_horizon (kind, a, v) =
      match kind with
      | 6 -> Sample (!now, v)
      | 7 -> Sample (!now -. (10.0 *. a) -. 0.1, v)
      | 8 -> Sample (bad, v)
      | 9 ->
          now := !now +. (horizon *. (1.0 +. (5.0 *. a)));
          Sample (!now, v)
      | _ ->
          if below_horizon then
            now := !now +. (a *. (start +. horizon -. !now) /. 2.0)
          else now := !now +. (a *. horizon *. 0.3);
          Sample (!now, v)
    in
    let pre = List.map (emit ~below_horizon:true) prefix in
    let boundary = Sample (start +. horizon, vb) in
    now := start +. horizon;
    let post = List.map (emit ~below_horizon:false) suffix in
    let fin =
      match finish with
      | Some a -> [ Finish (!now +. (a *. horizon)) ]
      | None -> []
    in
    return ((Sample (start, v0) :: pre) @ (boundary :: post) @ fin)
  in
  map2 (fun a b -> a @ (Clear :: b)) phase phase

(* capacity, bucket width (dyadic, so [capacity * width] is exact and the
   boundary sample lands exactly on it), whether the width comes from a
   horizon hint, the stream, and block sizes for [record_block] *)
let gen_timeline_case =
  let open QCheck2.Gen in
  let* capacity = int_range 2 16 in
  let* width = oneofl [ 0.5; 1.0; 1.25; 2.0 ] in
  let* hinted = bool in
  let width = if hinted then width else 1.0 in
  let horizon = float_of_int capacity *. width in
  let* stream = gen_stream ~horizon in
  let* blocks =
    list_size (int_range 0 6)
      (frequency [ (2, return 0); (2, return 1); (3, int_range 2 8); (1, int_range 9 300) ])
  in
  let* last_block = int_range 1 300 in
  return (capacity, (if hinted then Some horizon else None), stream, blocks @ [ last_block ])

let bits = Int64.bits_of_float

(* the non-empty buckets of a reference recorder, as a snapshot lists
   them *)
let ref_points (r : Ref_recorder.t) =
  List.filter_map
    (fun i ->
      if r.count.(i) > 0 || r.time_cov.(i) > 0.0 then
        Some
          ( i,
            r.count.(i),
            List.map bits [ r.time_cov.(i); r.area.(i); r.sum_v.(i); r.vmin.(i); r.vmax.(i) ] )
      else None)
    (List.init r.used Fun.id)

let snapshot_points (snap : Timeline.snapshot) =
  List.map
    (fun (p : Timeline.point) ->
      ( p.Timeline.index,
        p.Timeline.count,
        List.map bits
          [ p.Timeline.time_cov; p.Timeline.area; p.Timeline.sum_v; p.Timeline.vmin; p.Timeline.vmax ] ))
    snap.Timeline.points

let same_as_reference (r : Ref_recorder.t) (snap : Timeline.snapshot) =
  bits r.t0 = bits snap.Timeline.t0
  && bits r.width = bits snap.Timeline.width
  && ref_points r = snapshot_points snap

(* feed the samples between two non-sample ops to [record_block] in
   blocks of the given sizes, cycling through them; the arrays are
   longer than [n] and padded with samples that must not be read *)
let feed_blocks s sizes samples =
  let sizes = Array.of_list sizes in
  let rec go k samples =
    if samples <> [] then begin
      let n = min sizes.(k mod Array.length sizes) (List.length samples) in
      let pad = k mod 3 in
      let ts = Array.make (n + pad) 1e9 and vs = Array.make (n + pad) 99.0 in
      List.iteri
        (fun j (t, v) ->
          if j < n then begin
            ts.(j) <- t;
            vs.(j) <- v
          end)
        samples;
      Timeline.record_block s ts vs n;
      go (k + 1) (List.filteri (fun j _ -> j >= n) samples)
    end
  in
  go 0 samples

let timeline_matches_reference =
  QCheck2.Test.make ~name:"record and record_block = reference recorder"
    ~count:300 gen_timeline_case (fun (capacity, horizon, stream, sizes) ->
      let registry = Timeline.create () in
      let reference = Ref_recorder.create ~capacity ?horizon () in
      let one = Timeline.series ~registry ~capacity ?horizon "urs_t_ref_record" in
      let blk = Timeline.series ~registry ~capacity ?horizon "urs_t_ref_block" in
      let pending = ref [] in
      let flush () =
        feed_blocks blk sizes (List.rev !pending);
        pending := []
      in
      List.iter
        (function
          | Sample (t, v) ->
              Ref_recorder.record reference ~t v;
              Timeline.record one ~t v;
              pending := (t, v) :: !pending
          | Clear ->
              flush ();
              Ref_recorder.clear reference;
              Timeline.clear one;
              Timeline.clear blk
          | Finish t ->
              flush ();
              Ref_recorder.finish reference ~t;
              Timeline.finish one ~t;
              Timeline.finish blk ~t)
        stream;
      flush ();
      let ok name s =
        same_as_reference reference (Timeline.snapshot_series s)
        || QCheck2.Test.fail_reportf "%s differs from the reference" name
      in
      ok "record" one && ok "record_block" blk)

let test_record_block_rejects_short_arrays () =
  let s = Timeline.series ~registry:(Timeline.create ()) "urs_t_short" in
  let a = Array.make 4 0.0 in
  List.iter
    (fun (ts, vs, n) ->
      Alcotest.check_raises "n outside the arrays"
        (Invalid_argument "Timeline.record_block: n outside the arrays")
        (fun () -> Timeline.record_block s ts vs n))
    [ (a, a, 5); (a, Array.make 2 0.0, 3); (a, a, -1) ]

let sim_cfg_small =
  {
    Urs_sim.Server_farm.servers = 3;
    lambda = 2.0;
    mu = 1.0;
    operative = Urs_prob.Distribution.exponential ~rate:0.1;
    inoperative = Urs_prob.Distribution.exponential ~rate:1.0;
    repair_crews = None;
  }

let test_timeline_pinned_replication () =
  (* regression pin, taken from the per-sample recorder before samples
     were handed over in blocks: the buckets depend only on the sample
     sequence, so these values change only if the simulator's trajectory
     or the bucket algebra does *)
  let r = Timeline.create () in
  ignore
    (Urs_sim.Replicate.run ~seed:6 ~replications:1 ~duration:500.0
       ~timeline_registry:r sim_cfg_small);
  match Timeline.snapshot ~registry:r ~name:"urs_sim_jobs" () with
  | [ snap ] ->
      let points = snap.Timeline.points in
      let hex x = Printf.sprintf "%h" x in
      Alcotest.(check int) "buckets" 256 (List.length points);
      Alcotest.(check string) "sum of areas" "0x1.0aee0dcc65b98p+11"
        (hex (List.fold_left (fun a p -> a +. p.Timeline.area) 0.0 points));
      Alcotest.(check int) "sum of counts" 2243
        (List.fold_left (fun a p -> a + p.Timeline.count) 0 points);
      Alcotest.(check string) "first bucket mean" "0x1.c686b57e4a2a8p+0"
        (hex (Timeline.point_mean (List.hd points)));
      Alcotest.(check string) "last bucket mean" "0x1.6c5ec8e097728p+0"
        (hex (Timeline.point_mean (List.nth points (List.length points - 1))))
  | l -> Alcotest.failf "expected one urs_sim_jobs series, got %d" (List.length l)

(* every snapshot of a series, taken at any moment, is a consistent
   state: each bucket's mean lies within its min and max, and no bucket
   covers more than its width *)
let snapshot_violation (snap : Timeline.snapshot) =
  List.find_map
    (fun (p : Timeline.point) ->
      let mean = Timeline.point_mean p in
      if not (p.Timeline.vmin <= mean && mean <= p.Timeline.vmax) then
        Some
          (Printf.sprintf "%s bucket %d: min %g <= mean %g <= max %g violated"
             snap.Timeline.s_name p.Timeline.index p.Timeline.vmin mean p.Timeline.vmax)
      else if p.Timeline.time_cov > snap.Timeline.width +. 1e-9 then
        Some
          (Printf.sprintf "%s bucket %d covers more than its width" snap.Timeline.s_name
             p.Timeline.index)
      else None)
    snap.Timeline.points

let snapshot_bits (snap : Timeline.snapshot) =
  ( snap.Timeline.s_name,
    snap.Timeline.s_labels,
    bits snap.Timeline.t0,
    bits snap.Timeline.width,
    snapshot_points snap )

let test_timeline_snapshots_while_blocks_land () =
  (* a second domain snapshots the registry in a loop while a run hands
     its samples over block by block *)
  let run registry =
    ignore
      (Urs_sim.Replicate.run ~seed:9 ~replications:2 ~duration:20_000.0
         ~timeline_registry:registry sim_cfg_small)
  in
  let solo = Timeline.create () in
  run solo;
  let shared = Timeline.create () in
  let started = Atomic.make false and stop = Atomic.make false in
  let watcher =
    Domain.spawn (fun () ->
        let bad = ref None in
        let check () =
          List.iter
            (fun snap -> if !bad = None then bad := snapshot_violation snap)
            (Timeline.snapshot ~registry:shared ())
        in
        Atomic.set started true;
        check ();
        while not (Atomic.get stop) do
          check ()
        done;
        !bad)
  in
  (* the run starts only once the watcher is looping *)
  while not (Atomic.get started) do
    Domain.cpu_relax ()
  done;
  Fun.protect ~finally:(fun () -> Atomic.set stop true) (fun () -> run shared);
  Option.iter
    (Alcotest.failf "inconsistent snapshot: %s")
    (Domain.join watcher);
  let final = List.map snapshot_bits (Timeline.snapshot ~registry:shared ()) in
  let expected = List.map snapshot_bits (Timeline.snapshot ~registry:solo ()) in
  Alcotest.(check int) "series count" (List.length expected) (List.length final);
  if final <> expected then Alcotest.fail "final snapshot differs from a solo run's"

(* ---- progress ---- *)

let with_fake_clock f =
  let t = ref 0.0 in
  Span.set_clock (fun () -> !t);
  Fun.protect ~finally:Span.use_default_clock (fun () -> f t)

let test_progress_rate_and_eta () =
  with_fake_clock @@ fun clock ->
  Progress.reset ();
  Progress.start ~total:10 "batch";
  clock := 4.0;
  Progress.tick ~by:2 "batch";
  (match Progress.snapshot () with
  | [ st ] ->
      Alcotest.(check string) "name" "batch" st.Progress.p_name;
      Alcotest.(check (option int)) "total" (Some 10) st.Progress.p_total;
      Alcotest.(check int) "completed" 2 st.Progress.p_completed;
      check_float "elapsed" 4.0 st.Progress.p_elapsed_s;
      check_float "rate" 0.5 st.Progress.p_rate;
      (match st.Progress.p_eta_s with
      | Some eta -> check_float "eta = remaining / rate" 16.0 eta
      | None -> Alcotest.fail "eta should be known");
      Alcotest.(check bool) "not finished" false st.Progress.p_finished
  | l -> Alcotest.failf "expected one task, got %d" (List.length l));
  Progress.finish "batch";
  clock := 100.0;
  (match Progress.snapshot () with
  | [ st ] ->
      Alcotest.(check bool) "finished" true st.Progress.p_finished;
      check_float "clock frozen at finish" 4.0 st.Progress.p_elapsed_s
  | _ -> Alcotest.fail "task should remain listed");
  (* ticking an unknown task must not create one *)
  Progress.tick "never-started";
  Alcotest.(check int) "no ghost tasks" 1 (List.length (Progress.snapshot ()));
  let json = Json.to_string (Progress.to_json ()) in
  check_contains "json lists the task" json {|"task":"batch"|};
  check_contains "json marks finished" json {|"finished":true|};
  Progress.reset ();
  Alcotest.(check int) "reset clears" 0 (List.length (Progress.snapshot ()))

(* ---- perfetto export ---- *)

let test_perfetto_export () =
  with_fake_clock @@ fun clock ->
  let r = Metrics.create () in
  Span.set_tracing true;
  Fun.protect
    ~finally:(fun () ->
      Span.set_tracing false;
      Span.reset_trace ())
    (fun () ->
      Span.with_ ~registry:r ~name:"urs_outer" (fun () ->
          clock := 1.0;
          Span.with_ ~registry:r ~labels:[ ("k", "v") ] ~name:"urs_inner"
            (fun () -> clock := 2.0);
          clock := 3.0);
      let trace = Span.trace_perfetto () in
      match Json.of_string trace with
      | Error e -> Alcotest.failf "perfetto output does not parse: %s" e
      | Ok j -> (
          match Json.member "traceEvents" j with
          | Some (Json.List (outer :: inner :: _)) ->
              let str k o = Option.bind (Json.member k o) Json.to_string_opt in
              let num k o = Option.bind (Json.member k o) Json.to_float_opt in
              Alcotest.(check (option string))
                "outer name" (Some "urs_outer") (str "name" outer);
              Alcotest.(check (option string))
                "complete event" (Some "X") (str "ph" outer);
              check_float "outer ts (us)" 0.0
                (Option.get (num "ts" outer));
              check_float "outer dur (us)" 3e6
                (Option.get (num "dur" outer));
              check_float "inner ts (us)" 1e6 (Option.get (num "ts" inner));
              check_float "inner dur (us)" 1e6 (Option.get (num "dur" inner));
              check_float "tid is the domain id" 0.0
                (Option.get (num "tid" inner));
              (match Json.member "args" inner with
              | Some (Json.Obj kvs) -> (
                  (match List.assoc_opt "k" kvs with
                  | Some (Json.String "v") -> ()
                  | _ -> Alcotest.fail "labels should become args");
                  (* args also carry the correlation ids: the inner
                     span's parent is the outer span *)
                  let arg_str key =
                    match List.assoc_opt key kvs with
                    | Some (Json.String s) -> Some s
                    | _ -> None
                  in
                  (match arg_str "trace_id" with
                  | Some t -> Alcotest.(check int) "trace id width" 32 (String.length t)
                  | None -> Alcotest.fail "args should carry trace_id");
                  (match (arg_str "parent_span_id", Json.member "args" outer) with
                  | Some p, Some (Json.Obj outer_kvs) ->
                      (match List.assoc_opt "span_id" outer_kvs with
                      | Some (Json.String outer_span) ->
                          Alcotest.(check string)
                            "inner parents onto outer" outer_span p
                      | _ -> Alcotest.fail "outer args should carry span_id")
                  | _ -> Alcotest.fail "inner args should carry parent_span_id"))
              | _ -> Alcotest.fail "labels should become args")
          | _ -> Alcotest.fail "traceEvents should hold both spans"))

(* ---- build info ---- *)

let test_build_info () =
  Fun.protect ~finally:Export.clear_build_info (fun () ->
      Alcotest.(check string)
        "absent until set" "" (Export.prometheus []);
      Export.set_build_info ~version:"9.9.9" ();
      let prom = Export.prometheus [] in
      check_contains "prometheus gauge" prom "# TYPE urs_build_info gauge";
      check_contains "version label" prom
        (Printf.sprintf "urs_build_info{version=\"9.9.9\",ocaml=\"%s\"} 1"
           Sys.ocaml_version);
      let json = Export.json [] in
      check_contains "json entry" json {|"name":"urs_build_info"|};
      check_contains "json version" json {|"version":"9.9.9"|});
  Alcotest.(check string)
    "cleared again" "" (Export.prometheus [])

(* ---- stats histogram exposition ---- *)

let test_stats_histogram_golden () =
  let h =
    Urs_stats.Histogram.build ~bins:3 ~range:(0.0, 3.0)
      [| 0.5; 1.5; 1.5; 2.5 |]
  in
  let got =
    Export.stats_histogram ~help:"test histogram" ~name:"urs_test_hist" h
  in
  let expected =
    "# HELP urs_test_hist test histogram\n\
     # TYPE urs_test_hist histogram\n\
     urs_test_hist_bucket{le=\"1\"} 1\n\
     urs_test_hist_bucket{le=\"2\"} 3\n\
     urs_test_hist_bucket{le=\"3\"} 4\n\
     urs_test_hist_bucket{le=\"+Inf\"} 4\n\
     urs_test_hist_sum 6\n\
     urs_test_hist_count 4\n"
  in
  Alcotest.(check string) "golden exposition" expected got;
  let labelled =
    Export.stats_histogram
      ~labels:[ ("side", "operative") ]
      ~name:"urs_test_hist" h
  in
  check_contains "labels merge with le" labelled
    "urs_test_hist_bucket{side=\"operative\",le=\"1\"} 1";
  Alcotest.check_raises "invalid name"
    (Invalid_argument "Export.stats_histogram: invalid name \"bad name\"")
    (fun () -> ignore (Export.stats_histogram ~name:"bad name" h))

(* ---- query helpers ---- *)

let test_query_helpers () =
  let q = [ ("a", "1"); ("b", "x"); ("a", "2") ] in
  Alcotest.(check (option string)) "first wins" (Some "1") (Http.query_get q "a");
  Alcotest.(check (option string)) "missing" None (Http.query_get q "z");
  Alcotest.(check (option int)) "int" (Some 1) (Http.query_int q "a");
  Alcotest.(check (option int)) "non-numeric" None (Http.query_int q "b");
  (* strict positive-int validation: absent defaults, junk errors *)
  let q = [ ("n", "3"); ("zero", "0"); ("neg", "-2"); ("junk", "abc") ] in
  (match Http.query_pos_int q "n" ~default:100 with
  | Ok 3 -> ()
  | _ -> Alcotest.fail "present positive should parse");
  (match Http.query_pos_int q "missing" ~default:100 with
  | Ok 100 -> ()
  | _ -> Alcotest.fail "absent should take the default");
  List.iter
    (fun key ->
      match Http.query_pos_int q key ~default:100 with
      | Error _ -> ()
      | Ok v -> Alcotest.failf "%s should be rejected, got %d" key v)
    [ "zero"; "neg"; "junk" ]

(* ---- runtime probes ---- *)

module Runtime = Urs_obs.Runtime

let test_runtime_measure () =
  let r, d =
    Runtime.measure (fun () ->
        Array.length (Sys.opaque_identity (Array.make 100_000 0.0)))
  in
  Alcotest.(check int) "result threaded" 100_000 r;
  (* a 100k-element float array costs at least that many words,
     wherever the allocator put it *)
  if d.Runtime.d_minor_words +. d.Runtime.d_major_words < 100_000.0 then
    Alcotest.failf "allocation not observed: minor %g major %g"
      d.Runtime.d_minor_words d.Runtime.d_major_words;
  if d.Runtime.heap_words_after <= 0 then
    Alcotest.fail "heap_words_after should be positive";
  if d.Runtime.top_heap_words_after < d.Runtime.heap_words_after then
    Alcotest.fail "top heap below current heap";
  (* 10,000 boxed floats in a list, five words each, all in the minor
     heap: Gc.quick_stat's minor words would read 0 unless a collection
     fell inside the region *)
  let _, d =
    Runtime.measure (fun () ->
        List.length (Sys.opaque_identity (List.init 10_000 Float.of_int)))
  in
  if d.Runtime.d_minor_words < 30_000.0 then
    Alcotest.failf "minor words undercounted: %g" d.Runtime.d_minor_words

let test_runtime_profiling_switch () =
  Alcotest.(check bool) "off by default" false (Runtime.profiling_enabled ());
  Runtime.set_profiling true;
  Alcotest.(check bool) "armed" true (Runtime.profiling_enabled ());
  Alcotest.(check bool)
    "same switch as Span" true
    (Span.gc_profiling_enabled ());
  Runtime.set_profiling false;
  Alcotest.(check bool) "disarmed" false (Runtime.profiling_enabled ())

let test_runtime_events_killswitch () =
  (* with the kill-switch set, the whole consumer degrades to a no-op *)
  Unix.putenv "URS_NO_RUNTIME_EVENTS" "1";
  Fun.protect
    ~finally:(fun () -> Unix.putenv "URS_NO_RUNTIME_EVENTS" "")
    (fun () ->
      Alcotest.(check bool) "start refused" false (Runtime.start_events ());
      Alcotest.(check bool) "not running" false (Runtime.events_running ());
      (* stop without start is a harmless no-op *)
      Runtime.stop_events ();
      Alcotest.(check int) "no slices" 0 (List.length (Runtime.gc_slices ())))

let test_runtime_events_capture () =
  (* run one full start -> GC activity -> stop cycle and check the
     consumer turned phase pairs into slices on the Span clock *)
  Unix.putenv "URS_NO_RUNTIME_EVENTS" "";
  Runtime.clear_events ();
  let started = Runtime.start_events () in
  if not started then
    Alcotest.fail "runtime should support Runtime_events on OCaml >= 5.1";
  Alcotest.(check bool) "running" true (Runtime.events_running ());
  Alcotest.(check bool)
    "second start refused while running" false (Runtime.start_events ());
  (* allocate through the minor heap and force a full major so the ring
     sees both collectors *)
  let junk = ref [] in
  for i = 0 to 50_000 do
    junk := (i, float_of_int i) :: !junk;
    if i mod 10_000 = 0 then junk := []
  done;
  Gc.full_major ();
  Thread.delay 0.05;
  Runtime.stop_events ();
  Alcotest.(check bool) "stopped" false (Runtime.events_running ());
  let slices = Runtime.gc_slices () in
  if slices = [] then Alcotest.fail "no GC slices captured";
  List.iter
    (fun s ->
      if s.Runtime.duration_s < 0.0 then
        Alcotest.failf "negative slice duration for %s" s.Runtime.phase;
      if not (Float.is_finite s.Runtime.start_s) then
        Alcotest.failf "non-finite slice start for %s" s.Runtime.phase)
    slices;
  (* every slice and counter sample renders as a well-formed Chrome
     trace event *)
  List.iter
    (fun evt ->
      (match Option.bind (Json.member "ph" evt) Json.to_string_opt with
      | Some ("X" | "C") -> ()
      | _ -> Alcotest.fail "perfetto event must be ph=X or ph=C");
      match Option.bind (Json.member "ts" evt) Json.to_float_opt with
      | Some ts when Float.is_finite ts -> ()
      | _ -> Alcotest.fail "perfetto event needs a finite ts")
    (Runtime.perfetto_events ());
  (* the pause histogram saw at least one phase *)
  let saw_pause =
    List.exists
      (fun e ->
        e.Metrics.name = "urs_runtime_gc_events_total"
        &&
        match e.Metrics.data with
        | Metrics.Counter_value v -> v > 0.0
        | _ -> false)
      (Metrics.snapshot ())
  in
  if not saw_pause then Alcotest.fail "urs_runtime_gc_events_total never moved";
  let status = Json.to_string (Runtime.status_json ()) in
  check_contains "status reports stopped" status {|"events_running":false|};
  check_contains "status carries version" status {|"ocaml_version"|};
  Runtime.clear_events ();
  Alcotest.(check int) "clear drops slices" 0
    (List.length (Runtime.gc_slices ()));
  (* the ring-buffer file is unlinked as soon as the cursor maps it, so
     even a killed process leaves no <pid>.events litter in the CWD *)
  let ring =
    Filename.concat (Sys.getcwd ())
      (string_of_int (Unix.getpid ()) ^ ".events")
  in
  Alcotest.(check bool) "ring file unlinked" false (Sys.file_exists ring)

let test_runtime_events_restart () =
  (* stop_events keeps the cursor (the unlinked ring cannot be reopened),
     so a second capture cycle in the same process must still work *)
  Unix.putenv "URS_NO_RUNTIME_EVENTS" "";
  Runtime.clear_events ();
  if not (Runtime.start_events ()) then
    Alcotest.fail "first restart-cycle start refused";
  Runtime.stop_events ();
  Runtime.clear_events ();
  if not (Runtime.start_events ()) then
    Alcotest.fail "second start after stop refused";
  Alcotest.(check bool) "running again" true (Runtime.events_running ());
  let junk = ref [] in
  for i = 0 to 50_000 do
    junk := float_of_int i :: !junk;
    if i mod 10_000 = 0 then junk := []
  done;
  ignore (Sys.opaque_identity !junk);
  Gc.full_major ();
  Thread.delay 0.05;
  Runtime.stop_events ();
  Alcotest.(check bool) "stopped again" false (Runtime.events_running ());
  if Runtime.gc_slices () = [] then
    Alcotest.fail "no GC slices captured after restart";
  Runtime.clear_events ()

(* ---- span GC profiling and extra-event merge ---- *)

let test_span_gc_profiling () =
  let r = Metrics.create () in
  Span.set_tracing true;
  Span.set_gc_profiling true;
  Fun.protect
    ~finally:(fun () ->
      Span.set_gc_profiling false;
      Span.set_tracing false;
      Span.reset_trace ())
    (fun () ->
      Span.with_ ~registry:r ~name:"urs_alloc_span" (fun () ->
          ignore (Sys.opaque_identity (List.init 10_000 Float.of_int)));
      let t = Span.trace_json () in
      check_contains "minor words attached" t {|"gc_minor_words":|};
      check_contains "major words attached" t {|"gc_major_words":|};
      (* profiling off again: fresh spans carry no gc fields *)
      Span.set_gc_profiling false;
      Span.set_tracing false;
      Span.set_tracing true;
      Span.with_ ~registry:r ~name:"urs_quiet_span" (fun () -> ());
      let t' = Span.trace_json () in
      if contains t' "gc_minor_words" then
        Alcotest.fail "gc fields leaked into unprofiled span")

let test_perfetto_extra_merge () =
  with_fake_clock @@ fun clock ->
  let r = Metrics.create () in
  Span.set_tracing true;
  Fun.protect
    ~finally:(fun () ->
      Span.set_tracing false;
      Span.reset_trace ())
    (fun () ->
      Span.with_ ~registry:r ~name:"urs_span" (fun () -> clock := 1.0);
      let extra =
        [
          Json.Obj
            [
              ("name", Json.String "gc:test_counter");
              ("cat", Json.String "gc");
              ("ph", Json.String "C");
              ("ts", Json.Float 0.0);
              ("pid", Json.Int 1);
              ("tid", Json.Int 0);
              ("args", Json.Obj [ ("value", Json.Float 42.0) ]);
            ];
        ]
      in
      let trace = Span.trace_perfetto ~extra () in
      match Json.of_string trace with
      | Error e -> Alcotest.failf "merged trace does not parse: %s" e
      | Ok j -> (
          match Json.member "traceEvents" j with
          | Some (Json.List evs) ->
              Alcotest.(check int) "span + extra" 2 (List.length evs);
              let last = List.nth evs 1 in
              Alcotest.(check (option string))
                "extra appended last" (Some "gc:test_counter")
                (Option.bind (Json.member "name" last) Json.to_string_opt)
          | _ -> Alcotest.fail "traceEvents missing"))

(* ---- exporter emits each header family once ---- *)

let count_sub hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i acc =
    if i + nn > nh then acc
    else if String.sub hay i nn = needle then go (i + 1) (acc + 1)
    else go (i + 1) acc
  in
  if nn = 0 then 0 else go 0 0

let test_prometheus_type_once () =
  let r = Metrics.create () in
  Metrics.inc (Metrics.counter ~registry:r ~labels:[ ("k", "a") ] "dup_total");
  Metrics.inc (Metrics.counter ~registry:r ~labels:[ ("k", "b") ] "dup_total");
  Metrics.set (Metrics.gauge ~registry:r "dup_gauge") 1.0;
  let snap = Metrics.snapshot ~registry:r () in
  (* regression: concatenated snapshots interleave families, which an
     adjacency-based header check double-emitted *)
  let out = Export.prometheus (snap @ snap) in
  Alcotest.(check int)
    "counter TYPE once" 1
    (count_sub out "# TYPE dup_total counter");
  Alcotest.(check int)
    "gauge TYPE once" 1
    (count_sub out "# TYPE dup_gauge gauge");
  (* the samples themselves still all render *)
  Alcotest.(check int) "samples kept" 2 (count_sub out "dup_total{k=\"a\"} 1")

(* ---- perf history ---- *)

module Perf = Urs_obs.Perf

let perf_stat ?(seconds = 0.01) ?(minor = 1e5) () =
  {
    Perf.seconds;
    minor_words = minor;
    promoted_words = 1e3;
    major_words = 2e4;
  }

let perf_entry ?(time = 1000.0) ?(spectral = 0.01) () =
  {
    Perf.time;
    git_rev = "abc1234";
    ocaml = "5.1.1";
    jobs = 1;
    sections = [ ("n5", 1.5) ];
    solvers =
      [
        ("spectral", perf_stat ~seconds:spectral ());
        ("geometric", perf_stat ~seconds:1e-4 ~minor:1e3 ());
      ];
  }

let test_perf_json_roundtrip () =
  let e = perf_entry () in
  (match Perf.entry_of_json (Perf.entry_to_json e) with
  | Error err -> Alcotest.failf "round-trip failed: %s" err
  | Ok e' ->
      check_float "time" e.Perf.time e'.Perf.time;
      Alcotest.(check string) "rev" "abc1234" e'.Perf.git_rev;
      Alcotest.(check int) "jobs" 1 e'.Perf.jobs;
      check_float "section" 1.5 (List.assoc "n5" e'.Perf.sections);
      let s = List.assoc "spectral" e'.Perf.solvers in
      check_float "seconds" 0.01 s.Perf.seconds;
      check_float "minor words" 1e5 s.Perf.minor_words);
  (* a bumped schema tag must be rejected, unknown extra fields ignored *)
  (match
     Perf.entry_of_json (Json.Obj [ ("schema", Json.String "urs-perf/99") ])
   with
  | Ok _ -> Alcotest.fail "unknown schema should be rejected"
  | Error e -> check_contains "names the schema" e "urs-perf/99");
  match Perf.entry_to_json (perf_entry ()) with
  | Json.Obj fields -> (
      match
        Perf.entry_of_json (Json.Obj (("future_field", Json.Int 9) :: fields))
      with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "extra field should be ignored: %s" e)
  | _ -> Alcotest.fail "entry_to_json should be an object"

let test_perf_append_read () =
  let path = Filename.temp_file "urs_perf" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Perf.append path (perf_entry ~time:1.0 ());
      Perf.append path (perf_entry ~time:2.0 ~spectral:0.02 ());
      (match Perf.read_file path with
      | Error e -> Alcotest.failf "read_file: %s" e
      | Ok [ a; b ] ->
          check_float "first entry" 1.0 a.Perf.time;
          check_float "second entry" 2.0 b.Perf.time
      | Ok es -> Alcotest.failf "expected 2 entries, got %d" (List.length es));
      (* append never truncates *)
      Perf.append path (perf_entry ~time:3.0 ());
      (match Perf.read_file path with
      | Ok es -> Alcotest.(check int) "third appended" 3 (List.length es)
      | Error e -> Alcotest.failf "re-read: %s" e);
      let oc = open_out_gen [ Open_append ] 0o644 path in
      output_string oc "{\"schema\":\"nope\"}\n";
      close_out oc;
      match Perf.read_file path with
      | Ok _ -> Alcotest.fail "malformed history should not parse"
      | Error e -> check_contains "error names the line" e ":4:")

let test_perf_analyze_breach () =
  let history =
    [ perf_entry ~time:1.0 ~spectral:0.01 ();
      perf_entry ~time:2.0 ~spectral:0.025 () ]
  in
  let r = Perf.analyze history in
  Alcotest.(check int) "entries" 2 r.Perf.entries;
  Alcotest.(check (list string)) "spectral breaches" [ "spectral" ]
    r.Perf.breaches;
  let spectral =
    List.find (fun t -> t.Perf.solver = "spectral") r.Perf.trends
  in
  check_float "best is the minimum" 0.01 spectral.Perf.best_seconds;
  check_float "latest" 0.025 spectral.Perf.latest_seconds;
  check_float "ratio" 2.5 spectral.Perf.ratio;
  Alcotest.(check bool) "gated" true spectral.Perf.gated;
  Alcotest.(check bool) "breach" true spectral.Perf.breach;
  (* ungated solvers never breach, whatever their ratio *)
  let geometric =
    List.find (fun t -> t.Perf.solver = "geometric") r.Perf.trends
  in
  Alcotest.(check bool) "geometric not gated" false geometric.Perf.gated;
  Alcotest.(check bool) "geometric no breach" false geometric.Perf.breach;
  (* a looser gate clears it *)
  let loose = Perf.analyze ~max_ratio:3.0 history in
  Alcotest.(check (list string)) "no breach at 3x" [] loose.Perf.breaches;
  (* a single entry is its own best: ratio 1, no breach *)
  let single = Perf.analyze [ perf_entry () ] in
  Alcotest.(check (list string)) "single entry" [] single.Perf.breaches

let test_perf_renderings () =
  let r =
    Perf.analyze
      [ perf_entry ~time:1.0 ~spectral:0.01 ();
        perf_entry ~time:2.0 ~spectral:0.025 () ]
  in
  let table = Perf.render_table r in
  check_contains "table header" table "solver";
  check_contains "table trend" table "spectral";
  check_contains "table flags breach" table "BREACH";
  check_contains "table sections" table "n5";
  check_contains "table summary line" table "perf report: 2 entries";
  let md = Perf.render_markdown r in
  check_contains "markdown table" md "| spectral |";
  check_contains "markdown breach" md "**BREACH**";
  (match Json.of_string (Perf.render_json r) with
  | Error e -> Alcotest.failf "report json does not parse: %s" e
  | Ok j ->
      (match Option.bind (Json.member "schema" j) Json.to_string_opt with
      | Some "urs-report/1" -> ()
      | _ -> Alcotest.fail "report schema tag missing");
      (match Json.member "breaches" j with
      | Some (Json.List [ Json.String "spectral" ]) -> ()
      | _ -> Alcotest.fail "json breaches should list spectral"));
  let data = Perf.render_data r in
  check_contains "gnuplot block header" data "# solver: spectral";
  check_contains "gnuplot columns" data "# run time seconds minor_words";
  check_contains "gnuplot row" data "0 1 0.01 100000";
  (* two solvers -> two index blocks separated by a double blank line *)
  Alcotest.(check int) "block separator" 1 (count_sub data "\n\n\n")

let test_perf_ledger_digest () =
  let mk kind wall =
    {
      Ledger.seq = 0;
      time = 0.0;
      kind;
      strategy = None;
      params = [];
      wall_seconds = wall;
      outcome = "ok";
      summary = [];
      gauges = [];
      trace_id = None;
      span_id = None;
    }
  in
  let digest =
    Perf.ledger_digest [ mk "b.kind" 2.0; mk "a.kind" 1.0; mk "a.kind" 0.5 ]
  in
  (match digest with
  | [ ("a.kind", 2, wa); ("b.kind", 1, wb) ] ->
      check_float "a wall" 1.5 wa;
      check_float "b wall" 2.0 wb
  | _ -> Alcotest.failf "unexpected digest shape (%d rows)" (List.length digest));
  let rendered = Perf.render_ledger_digest digest in
  check_contains "digest lists kinds" rendered "a.kind";
  check_contains "digest header" rendered "by kind"

(* ---- convergence recorder ---- *)

module Conv = Urs_obs.Convergence

let test_conv_recorder_basics () =
  Conv.reset ();
  let r = Conv.create ~capacity:4 ~max_iter:10 ~solver:"t" ~label:"basics" () in
  for i = 1 to 6 do
    Conv.observe r ~iteration:i
      ~residual:(1.0 /. float_of_int i)
      ~active:(7 - i) ()
  done;
  let tr = Conv.finish r in
  Alcotest.(check int) "iterations" 6 tr.Conv.iterations;
  Alcotest.(check int) "ring bounded" 4 (Array.length tr.Conv.samples);
  Alcotest.(check int) "dropped" 2 tr.Conv.dropped;
  Alcotest.(check int) "finite residuals" 6 tr.Conv.residual_count;
  (* summary figures survive samples falling out of the ring *)
  check_float "first residual kept" 1.0 tr.Conv.residual_first;
  check_float "last residual" (1.0 /. 6.0) tr.Conv.residual_last;
  check_float "min residual" (1.0 /. 6.0) tr.Conv.residual_min;
  Alcotest.(check int)
    "window starts at oldest kept" 3 tr.Conv.samples.(0).Conv.iteration;
  Alcotest.(check (option int)) "cap" (Some 10) tr.Conv.max_iter;
  Alcotest.(check bool) "converged default" true tr.Conv.converged

let test_conv_finish_idempotent () =
  Conv.reset ();
  let r = Conv.create ~solver:"t" ~label:"seal" () in
  Conv.observe r ~iteration:1 ~residual:0.5 ();
  let a = Conv.finish ~converged:false r in
  let b = Conv.finish ~converged:true r in
  Alcotest.(check int) "same trace" a.Conv.seq b.Conv.seq;
  Alcotest.(check bool) "first verdict wins" false b.Conv.converged;
  Alcotest.(check int) "ring holds one entry" 1 (List.length (Conv.recent ()))

let test_conv_with_recording () =
  Conv.reset ();
  Alcotest.(check bool) "off by default" false (Conv.recording ());
  let finished_outside = Conv.create ~solver:"t" ~label:"outside" () in
  let (), traces =
    Conv.with_recording (fun () ->
        Alcotest.(check bool) "on inside" true (Conv.recording ());
        let r = Conv.create ~solver:"t" ~label:"inside" () in
        Conv.observe r ~iteration:1 ~residual:0.1 ();
        ignore (Conv.finish r))
  in
  Alcotest.(check bool) "restored off" false (Conv.recording ());
  Alcotest.(check int) "one trace inside window" 1 (List.length traces);
  Alcotest.(check string)
    "the inside trace" "inside" (List.hd traces).Conv.label;
  (* a recorder created before but finished after the window does not
     land in the window's trace list *)
  ignore (Conv.finish finished_outside);
  let (), later = Conv.with_recording (fun () -> ()) in
  Alcotest.(check int) "empty window" 0 (List.length later)

let test_conv_ring_bound () =
  Conv.reset ();
  for i = 1 to 70 do
    let r = Conv.create ~solver:"t" ~label:(string_of_int i) () in
    Conv.observe r ~iteration:1 ~residual:1.0 ();
    ignore (Conv.finish r)
  done;
  let all = Conv.recent () in
  Alcotest.(check int) "global ring capped" 64 (List.length all);
  Alcotest.(check string)
    "newest last" "70"
    (List.nth all (List.length all - 1)).Conv.label;
  Alcotest.(check int)
    "limit keeps newest" 5
    (List.length (Conv.recent ~limit:5 ()));
  Alcotest.(check string)
    "limited slice ends at newest" "70"
    (List.nth (Conv.recent ~limit:5 ()) 4).Conv.label;
  Conv.reset ();
  Alcotest.(check int) "reset clears" 0 (List.length (Conv.recent ()))

let test_conv_export_shapes () =
  Conv.reset ();
  let r = Conv.create ~max_iter:9 ~solver:"qr" ~label:"export" () in
  Conv.observe r ~iteration:1 ~residual:0.25 ~shift:0.5 ~active:3 ();
  Conv.observe r ~iteration:2 ~active:2 ~deflation:true ();
  ignore (Conv.finish r);
  let j = Json.to_string (Conv.to_json ()) in
  check_contains "top-level traces" j "\"traces\":";
  check_contains "solver tagged" j "\"solver\":\"qr\"";
  check_contains "samples present" j "\"samples\":";
  check_contains "cap exported" j "\"max_iter\":9";
  let evs = Conv.perfetto_events () in
  Alcotest.(check bool) "counter events emitted" true (evs <> []);
  List.iter
    (fun ev ->
      let s = Json.to_string ev in
      check_contains "counter phase" s "\"ph\":\"C\"";
      check_contains "conv track name" s "\"name\":\"conv:qr:";
      check_contains "remaining arg" s "\"remaining\":")
    evs;
  (* the residual arg is dropped for samples that carried none *)
  let with_residual =
    List.filter (fun ev -> contains (Json.to_string ev) "\"residual\":") evs
  in
  Alcotest.(check int) "one sample had a residual" 1 (List.length with_residual)

let test_conv_metrics_and_ledger () =
  Conv.reset ();
  Urs_obs.Ledger.set_memory true;
  let r = Conv.create ~solver:"mg_r" ~label:"wired" () in
  Conv.observe r ~iteration:1 ~residual:0.5 ();
  Conv.observe r ~iteration:2 ~residual:0.25 ();
  ignore (Conv.finish r);
  (match
     Metrics.value ~labels:[ ("solver", "mg_r") ] "urs_convergence_iterations"
   with
  | Some v -> check_float "iterations gauge" 2.0 v
  | None -> Alcotest.fail "missing urs_convergence_iterations gauge");
  (match
     List.find_opt
       (fun (rec_ : Urs_obs.Ledger.record) ->
         rec_.Urs_obs.Ledger.kind = "convergence")
       (Urs_obs.Ledger.recent ())
   with
  | Some rec_ ->
      Alcotest.(check string) "outcome" "ok" rec_.Urs_obs.Ledger.outcome
  | None -> Alcotest.fail "no convergence ledger record");
  Urs_obs.Ledger.set_memory false;
  Conv.reset ()

let test_conv_pp_not_converged () =
  Conv.reset ();
  let r = Conv.create ~max_iter:3 ~solver:"bisect" ~label:"stall" () in
  for i = 1 to 3 do
    Conv.observe r ~iteration:i ~residual:1.0 ()
  done;
  let tr = Conv.finish ~converged:false r in
  let s = Format.asprintf "%a" Conv.pp_trace tr in
  check_contains "flags the stall" s "NOT CONVERGED";
  check_contains "names the solver" s "bisect";
  Conv.reset ()

(* ---- Convergence.track: the one recorder path of the solvers ---- *)

let test_track_off () =
  Conv.reset ();
  let labelled = ref false in
  let v =
    Conv.track ~solver:"t"
      ~label:(fun () ->
        labelled := true;
        "off")
      ~callback:Fun.id ~converged:(fun _ -> true)
      (fun observe ->
        Alcotest.(check bool) "kernel gets no callback" true (observe = None);
        7)
  in
  Alcotest.(check int) "kernel's value" 7 v;
  Alcotest.(check bool) "label never built" false !labelled;
  Alcotest.(check int) "no trace" 0 (List.length (Conv.recent ()))

let test_track_on () =
  Conv.reset ();
  let run ~flag =
    Conv.with_recording (fun () ->
        Conv.track ~max_iter:9 ~solver:"t" ~label:(fun () -> "on")
          ~callback:(fun obs k -> obs ~iteration:k ~residual:(1.0 /. float k) ())
          ~converged:(fun v -> v = flag)
          (fun observe ->
            let obs = Option.get observe in
            obs 1;
            obs 2;
            true))
  in
  List.iter
    (fun flag ->
      match run ~flag with
      | true, [ tr ] ->
          Alcotest.(check bool) "caller's flag" flag tr.Conv.converged;
          Alcotest.(check string) "label" "on" tr.Conv.label;
          Alcotest.(check (option int)) "cap" (Some 9) tr.Conv.max_iter;
          Alcotest.(check int) "samples" 2 (Array.length tr.Conv.samples);
          check_float "last residual" 0.5 tr.Conv.residual_last
      | _, trs -> Alcotest.failf "expected one trace, got %d" (List.length trs))
    [ true; false ];
  Conv.reset ()

let test_track_raising_kernel () =
  Conv.reset ();
  Conv.set_recording true;
  Alcotest.check_raises "the kernel's exception propagates" Exit (fun () ->
      Conv.track ~solver:"t" ~label:(fun () -> "raises") ~callback:Fun.id
        ~converged:(fun () -> true)
        (fun observe ->
          (Option.get observe) ~iteration:1 ~residual:0.5 ();
          raise Exit));
  (match Conv.recent () with
  | [ tr ] ->
      Alcotest.(check bool) "not converged" false tr.Conv.converged;
      Alcotest.(check int) "sample kept" 1 tr.Conv.iterations
  | trs -> Alcotest.failf "expected one trace, got %d" (List.length trs));
  Conv.reset ()

let paper_qbd ~servers ~lambda =
  let m =
    Urs.Model.create ~servers ~arrival_rate:lambda ~service_rate:1.0
      ~operative:Urs.Model.paper_operative
      ~inoperative:Urs.Model.paper_inoperative_exp ()
  in
  Option.get (Urs.Model.qbd m)

(* the traces each solver leaves, pinned at the code they replaced:
   solver, label, cap, converged, iterations, samples, deflations. The
   paper model's "qr" trace is the QL iteration of the definite path
   (one deflation per eigenvalue of the 41×41 standard form); the
   Erlang-3 model's is the Francis QR of the companion path. A QL held
   to a cap of 2 falls back to the companion path, whose QR then stalls
   too. *)
let test_solver_traces () =
  Conv.reset ();
  let q = paper_qbd ~servers:5 ~lambda:3.0 in
  let erlang3 =
    Urs_mmq.Qbd.create
      ~env:
        (Urs_mmq.Environment.create_ph ~servers:3
           ~operative:
             (Urs_prob.Phase_type.of_erlang
                (Urs_prob.Erlang.create ~k:3 ~rate:0.3))
           ~inoperative:
             (Urs_prob.Phase_type.of_hyperexponential
                (Urs_prob.Hyperexponential.create ~weights:[| 1.0 |]
                   ~rates:[| 2.0 |]))
           ())
      ~lambda:2.0 ~mu:1.0
  in
  let digest ((), traces) =
    List.map
      (fun (t : Conv.trace) ->
        Printf.sprintf "%s|%s|%s|%b|%d|%d|%d" t.Conv.solver t.Conv.label
          (match t.Conv.max_iter with
          | Some m -> string_of_int m
          | None -> "-")
          t.Conv.converged t.Conv.iterations (Array.length t.Conv.samples)
          t.Conv.deflations)
      traces
  in
  Alcotest.(check (list string))
    "converging kernels"
    [
      "qr|spectral N=5 s=21|100|true|81|122|41";
      "qr|spectral N=3 s=20|100|true|62|87|25";
      "brent|geometric N=5 s=21|-|true|35|35|0";
      "mg_r|mg N=5 s=21|200000|true|93|93|0";
      "uniformization|transient t=1 states=651|-|true|232|232|0";
    ]
    (digest
       (Conv.with_recording (fun () ->
            ignore (Urs_mmq.Spectral.solve q);
            ignore (Urs_mmq.Spectral.solve erlang3);
            ignore (Urs_mmq.Geometric.solve q);
            ignore (Urs_mmq.Matrix_geometric.solve q);
            match Urs_mmq.Transient.create ~levels:30 q with
            | Ok t ->
                ignore
                  (Urs_mmq.Transient.distribution_at t
                     ~initial:(Urs_mmq.Transient.empty_all_operative t)
                     ~time:1.0)
            | Error _ -> Alcotest.fail "transient chain refused")));
  Alcotest.(check (list string))
    "stalled kernels"
    [
      "qr|spectral N=5 s=21|2|false|2|2|0";
      "qr|spectral N=5 s=21|2|false|2|2|0";
      "mg_r|mg N=5 s=21|5|false|5|5|0";
    ]
    (digest
       (Conv.with_recording (fun () ->
            ignore (Urs_mmq.Spectral.solve ~max_iter:2 q);
            ignore (Urs_mmq.Matrix_geometric.solve ~max_iter:5 q))));
  Conv.reset ()

(* ---- regression: metrics recorded by an exact evaluate ---- *)

let test_spectral_solve_metrics () =
  let m =
    Urs.Model.create ~servers:5 ~arrival_rate:3.0 ~service_rate:1.0
      ~operative:Urs.Model.paper_operative
      ~inoperative:Urs.Model.paper_inoperative_exp ()
  in
  (match Urs.Solver.evaluate m with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "evaluate failed: %a" Urs.Solver.pp_error e);
  (* Solver.evaluate sets the last-solve gauges, labelled by strategy
     since the approximate and matrix-geometric evaluations publish the
     same families *)
  let exact = [ ("strategy", "exact") ] in
  (* N=5 servers in a 3-phase environment (2 operative + 1 repair) give
     C(5+2,2) = 21 states, hence 21 eigenvalues inside the unit disk *)
  Alcotest.(check (option (float 1e-12)))
    "eigenvalue-count gauge" (Some 21.0)
    (Metrics.value ~labels:exact "urs_spectral_eigenvalues");
  (match Metrics.value ~labels:exact "urs_spectral_residual" with
  | Some resid ->
      if not (resid >= 0.0 && resid < 1e-8) then
        Alcotest.failf "balance residual %g not in [0, 1e-8)" resid
  | None -> Alcotest.fail "missing urs_spectral_residual gauge");
  (match Metrics.value "urs_qr_sweeps_total" with
  | Some sweeps when sweeps > 0.0 -> ()
  | v ->
      Alcotest.failf "urs_qr_sweeps_total should be positive, got %s"
        (match v with Some x -> string_of_float x | None -> "absent"));
  match Metrics.value "urs_spectral_lu_factorizations_total" with
  | Some lu when lu > 0.0 -> ()
  | _ -> Alcotest.fail "urs_spectral_lu_factorizations_total should be positive"

(* What the benchmark's plan check reads after each Solver.evaluate:
   the exact residual gauge (that solve's own residual) and the QR-sweep
   and LU counters. *)
let test_evaluate_perfbench_reads () =
  with_clean_ledger @@ fun () ->
  Ledger.set_memory true;
  let counter name = Option.value ~default:0.0 (Metrics.value name) in
  let sweeps0 = counter "urs_qr_sweeps_total"
  and lu0 = counter "urs_spectral_lu_factorizations_total" in
  let m =
    Urs.Model.create ~servers:6 ~arrival_rate:4.2 ~service_rate:1.0
      ~operative:Urs.Model.paper_operative
      ~inoperative:Urs.Model.paper_inoperative_exp ()
  in
  (match Urs.Solver.evaluate m with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "evaluate: %a" Urs.Solver.pp_error e);
  let gauge =
    Metrics.value ~labels:[ ("strategy", "exact") ] "urs_spectral_residual"
  in
  let recorded =
    List.find_map
      (fun (r : Ledger.record) ->
        if r.Ledger.kind = "solver.evaluate" then
          List.assoc_opt "urs_spectral_residual" r.Ledger.gauges
        else None)
      (Ledger.recent ())
  in
  Alcotest.(check bool) "QR sweeps counted" true
    (counter "urs_qr_sweeps_total" > sweeps0);
  Alcotest.(check bool) "LU factorizations counted" true
    (counter "urs_spectral_lu_factorizations_total" > lu0);
  let resolved =
    match Urs_mmq.Spectral.solve (Option.get (Urs.Model.qbd m)) with
    | Ok sol -> Urs_mmq.Spectral.residual sol
    | Error e -> Alcotest.failf "solve: %a" Urs_mmq.Spectral.pp_error e
  in
  Alcotest.(check (option (float 0.0))) "gauge is the solve's residual"
    (Some resolved) gauge;
  Alcotest.(check (option (float 0.0))) "ledger gauge too" (Some resolved)
    recorded

(* A matrix-geometric evaluate reports one sp(R), computed once by
   Matrix_geometric.solve: the answer's dominant eigenvalue, the mg
   gauge, and the solver.evaluate record's spectral_radius and gauge
   have the same bits. *)
let test_evaluate_mg_radius_once () =
  with_clean_ledger @@ fun () ->
  Ledger.set_memory true;
  let m =
    Urs.Model.create ~servers:4 ~arrival_rate:3.0 ~service_rate:1.0
      ~operative:Urs.Model.paper_operative
      ~inoperative:Urs.Model.paper_inoperative_exp ()
  in
  let answer =
    match Urs.Solver.evaluate ~strategy:Urs.Solver.Matrix_geometric m with
    | Ok p -> p.Urs.Solver.dominant_eigenvalue
    | Error e -> Alcotest.failf "evaluate: %a" Urs.Solver.pp_error e
  in
  let rho =
    match answer with
    | Some z -> z
    | None -> Alcotest.fail "no dominant eigenvalue in the answer"
  in
  let bits = function
    | Some x -> Some (Int64.bits_of_float x)
    | None -> None
  in
  let record =
    match Ledger.recent () with
    | [ r ] when r.Ledger.kind = "solver.evaluate" -> r
    | rs ->
        Alcotest.failf "expected one solver.evaluate record, got %d"
          (List.length rs)
  in
  let summary =
    match List.assoc_opt "spectral_radius" record.Ledger.summary with
    | Some (Json.Float x) -> Some x
    | _ -> None
  and gauge = List.assoc_opt "urs_spectral_dominant_z" record.Ledger.gauges in
  let expected = Some (Int64.bits_of_float rho) in
  Alcotest.(check bool) "0 < sp(R) < 1" true (rho > 0.0 && rho < 1.0);
  let mg_gauge =
    Metrics.value ~labels:[ ("strategy", "mg") ] "urs_spectral_dominant_z"
  in
  Alcotest.(check (option int64)) "mg gauge" expected (bits mg_gauge);
  Alcotest.(check (option int64)) "solver.evaluate spectral_radius" expected
    (bits summary);
  Alcotest.(check (option int64)) "solver.evaluate gauge" expected (bits gauge)

(* Every solver.evaluate record of a sweep on four domains carries its
   own solve's gauges, not whatever another domain's solve wrote last
   into the process-wide gauges. *)
let test_sweep_gauges_own_solve () =
  with_clean_ledger @@ fun () ->
  let path = Filename.temp_file "urs_gauges" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let m =
        Urs.Model.create ~servers:5 ~arrival_rate:4.0 ~service_rate:1.0
          ~operative:Urs.Model.paper_operative
          ~inoperative:Urs.Model.paper_inoperative_exp ()
      in
      let n = 300 in
      Ledger.open_file ~truncate:true path;
      let points =
        Urs_exec.Pool.with_pool ~name:"gauges-test" ~domains:4 (fun pool ->
            Urs.Sweep.over_loads ~pool m
              ~values:(Urs.Sweep.linspace 0.05 0.9 n))
      in
      Ledger.close ();
      Alcotest.(check int) "every point solved" n (List.length points);
      let records =
        match
          Ledger.fold_path path ~init:[] ~f:(fun acc r ->
              if r.Ledger.kind = "solver.evaluate" then r :: acc else acc)
        with
        | Ok (rs, _) -> rs
        | Error e -> Alcotest.failf "fold_path: %s" e
      in
      Alcotest.(check int) "one record per point" n (List.length records);
      let float_of = function
        | Some (Json.Float f) -> f
        | Some (Json.Int i) -> float_of_int i
        | _ -> nan
      in
      let foreign (r : Ledger.record) =
        let lambda = float_of (List.assoc_opt "lambda" r.Ledger.params) in
        let q = Option.get (Urs.Model.qbd (Urs.Model.with_arrival_rate m lambda)) in
        let sol = Result.get_ok (Urs_mmq.Spectral.solve q) in
        let own =
          [
            ( "urs_spectral_dominant_z",
              float_of (List.assoc_opt "dominant_z" r.Ledger.summary) );
            ("urs_spectral_residual", Urs_mmq.Spectral.residual sol);
            ( "urs_spectral_eigenvalues",
              float_of_int (Array.length (Urs_mmq.Spectral.eigenvalues sol)) );
          ]
        in
        r.Ledger.gauges <> own
      in
      Alcotest.(check int) "records carrying another solve's gauges" 0
        (List.length (List.filter foreign records)))

(* ---- histogram quantile interpolation ---- *)

let check_nan msg v =
  if not (Float.is_nan v) then Alcotest.failf "%s: expected nan, got %g" msg v

let test_quantile_boundary () =
  (* 10 observations per bucket: ranks landing exactly on a cumulative
     boundary return the bucket bound itself, no interpolation error *)
  let bounds = [| 1.0; 2.0; 3.0; 4.0 |] in
  let counts = [| 10; 10; 10; 10; 0 |] in
  let q v = Metrics.histogram_quantile ~bounds ~counts v in
  check_float "q=0.25 exact" 1.0 (q 0.25);
  check_float "q=0.5 exact" 2.0 (q 0.5);
  check_float "q=0.75 exact" 3.0 (q 0.75);
  check_float "q=1 is the last finite bound" 4.0 (q 1.0);
  check_float "mid-bucket rank interpolates linearly" 1.5 (q 0.375);
  check_float "first bucket interpolates from zero" 0.4 (q 0.1);
  (* a rank in the +Inf bucket has no upper edge to aim at *)
  check_float "+Inf rank clamps to highest finite bound" 4.0
    (Metrics.histogram_quantile ~bounds ~counts:[| 0; 0; 0; 0; 5 |] 0.5)

let test_quantile_nan_cases () =
  let bounds = [| 1.0; 2.0 |] in
  let q counts v = Metrics.histogram_quantile ~bounds ~counts v in
  check_nan "empty histogram" (q [| 0; 0; 0 |] 0.5);
  check_nan "q above 1" (q [| 1; 1; 1 |] 1.5);
  check_nan "negative q" (q [| 1; 1; 1 |] (-0.1));
  check_nan "nan q" (q [| 1; 1; 1 |] nan);
  check_nan "mismatched arrays" (q [| 1; 1 |] 0.5)

(* interpolated quantiles vs the exact empirical ones: off by at most
   the width of the bucket the true quantile falls in (the mli's
   contract), on an exponential and a bimodal latency population *)
let check_quantile_vs_empirical ~label samples =
  let bounds = Metrics.default_latency_buckets in
  let nb = Array.length bounds in
  let counts = Array.make (nb + 1) 0 in
  Array.iter
    (fun v ->
      let i = ref 0 in
      while !i < nb && v > bounds.(!i) do
        incr i
      done;
      counts.(!i) <- counts.(!i) + 1)
    samples;
  List.iter
    (fun q ->
      let hq = Metrics.histogram_quantile ~bounds ~counts q in
      let eq = Urs_stats.Empirical.quantile samples q in
      let bi = ref 0 in
      while !bi < nb && eq > bounds.(!bi) do
        incr bi
      done;
      let lo = if !bi = 0 then 0.0 else bounds.(min !bi nb - 1) in
      let hi = bounds.(min !bi (nb - 1)) in
      let width = Float.max (hi -. lo) 1e-12 in
      if Float.is_nan hq || abs_float (hq -. eq) > width +. 1e-9 then
        Alcotest.failf
          "%s q=%g: histogram %.6g vs empirical %.6g exceeds bucket width %.6g"
          label q hq eq width)
    [ 0.5; 0.9; 0.99 ]

let test_quantile_vs_empirical () =
  let rng = Urs_prob.Rng.create 7 in
  let exponential =
    Array.init 20_000 (fun _ -> Urs_prob.Rng.exponential rng 1.0)
  in
  check_quantile_vs_empirical ~label:"exponential" exponential;
  (* bimodal: µs-scale health checks mixed with second-scale solves *)
  let bimodal =
    Array.init 20_000 (fun i ->
        if i land 1 = 0 then Urs_prob.Rng.exponential rng 2000.0
        else Urs_prob.Rng.exponential rng 2.0)
  in
  check_quantile_vs_empirical ~label:"bimodal" bimodal

(* ---- standard routes: /metrics content type and formats ---- *)

module Routes = Urs_obs.Routes

let test_metrics_route_content_type () =
  Metrics.reset ();
  let h =
    Metrics.histogram ~buckets:Metrics.default_latency_buckets
      ~labels:[ ("route", "/x") ]
      "rt_seconds"
  in
  Metrics.observe h 0.003;
  let handler = List.assoc "/metrics" Routes.standard in
  let resp = handler [] in
  Alcotest.(check string)
    "prometheus text exposition content type" "text/plain; version=0.0.4"
    resp.Http.content_type;
  Alcotest.(check string)
    "exported constant matches" Routes.metrics_content_type
    resp.Http.content_type;
  Alcotest.(check int) "status" 200 resp.Http.status;
  check_contains "histogram family present" resp.Http.body "rt_seconds_bucket";
  check_contains "synthesized quantile family" resp.Http.body
    {|rt_seconds_quantile{quantile="0.99",route="/x"}|};
  let json = handler [ ("format", "json") ] in
  Alcotest.(check string)
    "json content type" "application/json" json.Http.content_type;
  check_contains "json carries quantiles" json.Http.body {|"quantiles"|};
  let bad = handler [ ("format", "xml") ] in
  Alcotest.(check int) "unknown format is a 400" 400 bad.Http.status

(* ---- client timeout: a silent server must not hang the caller ---- *)

let test_http_client_timeout () =
  (* a listening socket that never accepts: the TCP handshake succeeds
     (backlog), but no byte ever comes back *)
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close sock with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.bind sock (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
      Unix.listen sock 1;
      let port =
        match Unix.getsockname sock with
        | Unix.ADDR_INET (_, p) -> p
        | _ -> Alcotest.fail "unexpected socket address"
      in
      let t0 = Unix.gettimeofday () in
      match Http.request ~timeout_s:0.4 ~port "/healthz" with
      | Ok _ -> Alcotest.fail "silent server produced a response"
      | Error _ ->
          let elapsed = Unix.gettimeofday () -. t0 in
          if elapsed > 3.0 then
            Alcotest.failf "timeout took %.1fs (want ~0.4s)" elapsed)

(* ---- POST body vetting ---- *)

let http_send ?(close_write = false) ~port raw =
  let addr = Unix.ADDR_INET (Unix.inet_addr_loopback, port) in
  let sock = Unix.socket (Unix.domain_of_sockaddr addr) Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close sock with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect sock addr;
      let _ = Unix.write_substring sock raw 0 (String.length raw) in
      if close_write then Unix.shutdown sock Unix.SHUTDOWN_SEND;
      let buf = Buffer.create 1024 in
      let chunk = Bytes.create 1024 in
      let rec drain () =
        let n = Unix.read sock chunk 0 (Bytes.length chunk) in
        if n > 0 then begin
          Buffer.add_subbytes buf chunk 0 n;
          drain ()
        end
      in
      drain ();
      Buffer.contents buf)

let test_http_post_vetting () =
  let post_routes =
    [ ("/echo", fun _q ~body -> Http.respond ~content_type:"application/json" body) ]
  in
  let routes = [ ("/ping", fun _q -> Http.respond "pong\n") ] in
  let server = Http.start ~port:0 ~max_body_bytes:64 ~routes ~post_routes () in
  Fun.protect
    ~finally:(fun () -> Http.stop server)
    (fun () ->
      let port = Http.port server in
      let post ?(content_type = "application/json") ?length body =
        let length =
          match length with
          | Some l -> l
          | None -> string_of_int (String.length body)
        in
        http_send ~port
          (Printf.sprintf
             "POST /echo HTTP/1.0\r\nContent-Type: %s\r\nContent-Length: \
              %s\r\n\r\n%s"
             content_type length body)
      in
      check_contains "well-formed POST succeeds"
        (post {|{"ok":true}|})
        "HTTP/1.0 200";
      check_contains "body echoed" (post {|{"ok":true}|}) {|{"ok":true}|};
      check_contains "non-JSON content type is 415"
        (post ~content_type:"text/plain" "hello")
        "HTTP/1.0 415";
      check_contains "missing Content-Length is 411"
        (http_send ~port
           "POST /echo HTTP/1.0\r\nContent-Type: application/json\r\n\r\n{}")
        "HTTP/1.0 411";
      check_contains "non-numeric Content-Length is 400"
        (post ~length:"banana" "{}")
        "HTTP/1.0 400";
      check_contains "oversized declared body is 413"
        (post ~length:"100000" "{}")
        "HTTP/1.0 413";
      check_contains "truncated body is 400"
        (http_send ~port ~close_write:true
           "POST /echo HTTP/1.0\r\nContent-Type: application/json\r\n\
            Content-Length: 10\r\n\r\n{}")
        "HTTP/1.0 400";
      check_contains "GET against a POST route is 405"
        (http_send ~port "GET /echo HTTP/1.0\r\n\r\n")
        "HTTP/1.0 405";
      check_contains "POST against a GET route is 405"
        (post {|{}|} |> fun _ ->
         http_send ~port
           "POST /ping HTTP/1.0\r\nContent-Type: application/json\r\n\
            Content-Length: 2\r\n\r\n{}")
        "HTTP/1.0 405";
      check_contains "server still alive" (http_get ~port "/ping") "pong")

(* ---- SLO engine ---- *)

module Slo = Urs_obs.Slo

let objective spec =
  match Slo.parse_objective spec with
  | Ok o -> o
  | Error msg -> Alcotest.failf "%S should parse: %s" spec msg

let test_slo_parse () =
  let ok = objective in
  let o = ok "p99 < 50ms" in
  Alcotest.(check string) "self-naming" "p99 < 50ms" o.Slo.name;
  check_float "latency budget is 1-q" 0.01 o.Slo.budget;
  (match o.Slo.sli with
  | Slo.Latency { metric; q; threshold_s } ->
      Alcotest.(check string) "default metric" Slo.default_latency_metric metric;
      check_float "q" 0.99 q;
      check_float "threshold in seconds" 0.05 threshold_s
  | _ -> Alcotest.fail "expected a latency SLI");
  let o = ok "api: p99.9(my_seconds) < 2s" in
  Alcotest.(check string) "explicit name" "api" o.Slo.name;
  (match o.Slo.sli with
  | Slo.Latency { metric; q; threshold_s } ->
      Alcotest.(check string) "metric override" "my_seconds" metric;
      check_float "fractional quantile" 0.999 q;
      check_float "seconds suffix" 2.0 threshold_s
  | _ -> Alcotest.fail "expected a latency SLI");
  (match (ok "p50 < 250us").Slo.sli with
  | Slo.Latency { threshold_s; _ } ->
      check_float "us suffix wins over s" 2.5e-4 threshold_s
  | _ -> Alcotest.fail "expected a latency SLI");
  let o = ok "error_rate < 0.1%" in
  check_float "percent budget" 0.001 o.Slo.budget;
  (match o.Slo.sli with
  | Slo.Error_rate { metric } ->
      Alcotest.(check string) "default metric" Slo.default_error_metric metric
  | _ -> Alcotest.fail "expected an error-rate SLI");
  let o = ok "err: error_rate(my_total) < 0.02" in
  check_float "bare fraction budget" 0.02 o.Slo.budget;
  (match o.Slo.sli with
  | Slo.Error_rate { metric } ->
      Alcotest.(check string) "metric override" "my_total" metric
  | _ -> Alcotest.fail "expected an error-rate SLI");
  List.iter
    (fun spec ->
      match Slo.parse_objective spec with
      | Ok _ -> Alcotest.failf "%S should not parse" spec
      | Error _ -> ())
    [
      "garbage";
      "p99 < 50";
      "p0 < 1s";
      "p100 < 1s";
      "error_rate < 150%";
      "error_rate < 0";
      "p99(bad name) < 1s";
      "p99 < -3ms";
    ]

let slo_error_counter registry code =
  Metrics.counter ~registry
    ~labels:[ ("code", code); ("route", "/x") ]
    "urs_http_requests_total"

let test_slo_burn_and_breach () =
  with_clean_ledger @@ fun () ->
  Ledger.set_memory true;
  let registry = Metrics.create () in
  let now = ref 0.0 in
  let obj = objective "error_rate < 1%" in
  let slo = Slo.create ~clock:(fun () -> !now) ~registry [ obj ] in
  let emit ~bad ~good =
    Metrics.inc ~by:(float_of_int good) (slo_error_counter registry "200");
    if bad > 0 then
      Metrics.inc ~by:(float_of_int bad) (slo_error_counter registry "500")
  in
  (* an hour of clean traffic *)
  for _ = 1 to 61 do
    now := !now +. 60.0;
    emit ~bad:0 ~good:1000;
    Slo.tick slo
  done;
  (match Slo.evaluate slo with
  | [ ev ] ->
      Alcotest.(check bool) "healthy run not breached" false ev.Slo.breached;
      check_float "current error rate zero" 0.0 ev.Slo.current;
      List.iter
        (fun (w : Slo.window_eval) ->
          check_float ("zero burn in " ^ w.Slo.window) 0.0 w.Slo.burn_rate)
        ev.Slo.windows
  | evs -> Alcotest.failf "expected one eval, got %d" (List.length evs));
  (* one bad minute: the fast window alarms, the slow window holds, so
     the multi-window rule does not page *)
  now := !now +. 60.0;
  emit ~bad:200 ~good:800;
  (match Slo.evaluate slo with
  | [ ev ] ->
      Alcotest.(check bool) "brief blip not breached" false ev.Slo.breached;
      let burn label =
        (List.find (fun (w : Slo.window_eval) -> w.Slo.window = label)
           ev.Slo.windows)
          .Slo.burn_rate
      in
      if burn "5m" <= 1.0 then
        Alcotest.failf "fast window should burn > 1, got %g" (burn "5m");
      if burn "1h" > 1.0 then
        Alcotest.failf "slow window should hold, got %g" (burn "1h")
  | evs -> Alcotest.failf "expected one eval, got %d" (List.length evs));
  (* sustained 10%% errors: every window burns, the objective breaches *)
  for _ = 1 to 10 do
    now := !now +. 60.0;
    emit ~bad:100 ~good:900;
    Slo.tick slo
  done;
  (match Slo.evaluate slo with
  | [ ev ] ->
      Alcotest.(check bool) "sustained failure breaches" true ev.Slo.breached;
      Alcotest.(check bool) "any_breached agrees" true (Slo.any_breached [ ev ])
  | evs -> Alcotest.failf "expected one eval, got %d" (List.length evs));
  (* burn-rate and breached gauges landed on the engine's registry *)
  (match
     Metrics.value ~registry
       ~labels:[ ("objective", obj.Slo.name); ("window", "5m") ]
       "urs_slo_burn_rate"
   with
  | Some v when v > 1.0 -> ()
  | Some v -> Alcotest.failf "burn-rate gauge %g should exceed 1" v
  | None -> Alcotest.fail "urs_slo_burn_rate gauge missing");
  (match
     Metrics.value ~registry
       ~labels:[ ("objective", obj.Slo.name) ]
       "urs_slo_breached"
   with
  | Some v -> check_float "breached gauge set" 1.0 v
  | None -> Alcotest.fail "urs_slo_breached gauge missing");
  (* ... and every evaluation journaled one slo record per objective *)
  let slo_records =
    List.filter (fun r -> r.Ledger.kind = "slo") (Ledger.recent ())
  in
  Alcotest.(check int) "three evaluations journaled" 3
    (List.length slo_records);
  Alcotest.(check bool) "a breach outcome recorded" true
    (List.exists (fun r -> r.Ledger.outcome = "breach") slo_records);
  (* an hour of a steady 1 per mille error rate against the 1% budget:
     every window burns about 0.1, and nothing breaches *)
  let registry = Metrics.create () in
  let now = ref 0.0 in
  let slo = Slo.create ~clock:(fun () -> !now) ~registry [ obj ] in
  for _ = 1 to 61 do
    now := !now +. 60.0;
    Metrics.inc ~by:999.0 (slo_error_counter registry "200");
    Metrics.inc (slo_error_counter registry "500");
    Slo.tick slo
  done;
  match Slo.evaluate slo with
  | [ ev ] ->
      Alcotest.(check bool) "steady low error rate not breached" false
        ev.Slo.breached;
      Alcotest.(check int) "two windows" 2 (List.length ev.Slo.windows);
      List.iter
        (fun (w : Slo.window_eval) ->
          check_float ~tol:1e-9 ("burn 0.1 in " ^ w.Slo.window) 0.1
            w.Slo.burn_rate)
        ev.Slo.windows
  | evs -> Alcotest.failf "expected one eval, got %d" (List.length evs)

let test_slo_latency_sli () =
  let registry = Metrics.create () in
  let now = ref 0.0 in
  let obj = objective "p99 < 50ms" in
  let slo = Slo.create ~clock:(fun () -> !now) ~registry [ obj ] in
  let hist =
    Metrics.histogram ~registry ~buckets:Metrics.default_latency_buckets
      ~labels:[ ("route", "/x") ]
      "urs_http_request_seconds"
  in
  let emit ~slow ~fast =
    for _ = 1 to fast do
      Metrics.observe hist 0.004
    done;
    for _ = 1 to slow do
      Metrics.observe hist 0.2
    done
  in
  for _ = 1 to 61 do
    now := !now +. 60.0;
    emit ~slow:0 ~fast:100;
    Slo.tick slo
  done;
  (match Slo.evaluate slo with
  | [ ev ] ->
      Alcotest.(check bool) "fast traffic holds" false ev.Slo.breached;
      if Float.is_nan ev.Slo.current || ev.Slo.current > 0.05 then
        Alcotest.failf "current p99 %g should sit below 50ms" ev.Slo.current
  | evs -> Alcotest.failf "expected one eval, got %d" (List.length evs));
  (* ten minutes with 20%% of requests at 200ms against a 1%% budget *)
  for _ = 1 to 10 do
    now := !now +. 60.0;
    emit ~slow:20 ~fast:80;
    Slo.tick slo
  done;
  match Slo.evaluate slo with
  | [ ev ] ->
      Alcotest.(check bool) "slow tail breaches" true ev.Slo.breached;
      if not (ev.Slo.current > 0.05) then
        Alcotest.failf "current p99 %g should exceed the threshold"
          ev.Slo.current
  | evs -> Alcotest.failf "expected one eval, got %d" (List.length evs)

let test_slo_young_engine () =
  (* no traffic at all: nothing burns, nothing breaches, the current
     value is honest about having no data *)
  let registry = Metrics.create () in
  let slo =
    Slo.create
      ~clock:(fun () -> 0.0)
      ~registry
      [ objective "p99 < 50ms" ]
  in
  match Slo.evaluate slo with
  | [ ev ] ->
      Alcotest.(check bool) "not breached" false ev.Slo.breached;
      check_nan "no data yet" ev.Slo.current;
      List.iter
        (fun (w : Slo.window_eval) ->
          check_float "no burn" 0.0 w.Slo.burn_rate)
        ev.Slo.windows;
      check_contains "json shape" (Json.to_string (Slo.to_json [ ev ]))
        {|"breached":false|}
  | evs -> Alcotest.failf "expected one eval, got %d" (List.length evs)

(* ---- ledger rotation and streaming reads ---- *)

module Store = Urs_obs.Ledger_store

let with_tmp_ledger f =
  let path = Filename.temp_file "urs_rot" ".jsonl" in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun p -> try Sys.remove p with Sys_error _ -> ())
        (Store.segments path))
    (fun () -> f path)

let seqs_of_path path =
  match
    Urs_obs.Ledger.fold_path path ~init:[] ~f:(fun acc r ->
        r.Ledger.seq :: acc)
  with
  | Error e -> Alcotest.failf "fold_path: %s" e
  | Ok (rev, stats) -> (List.rev rev, stats)

let test_rotation_retention () =
  with_clean_ledger @@ fun () ->
  with_tmp_ledger @@ fun path ->
  Ledger.open_file ~truncate:true ~max_bytes:4096 ~keep:2 path;
  let total = 200 in
  for _ = 1 to total do
    sample_record ()
  done;
  Ledger.close ();
  let segs = Store.segments path in
  (* retention: at most keep rotated segments plus the live file *)
  if List.length segs > 3 then
    Alcotest.failf "%d segments survived retention (keep 2)"
      (List.length segs);
  List.iter
    (fun seg ->
      let size = (Unix.stat seg).Unix.st_size in
      if size > 4096 then Alcotest.failf "%s is %d bytes > max" seg size)
    segs;
  let seqs, stats = seqs_of_path path in
  Alcotest.(check int) "every surviving line parses" 0
    stats.Ledger.malformed;
  (* rotation deletes whole old segments, so the surviving seqs are a
     contiguous run ending at the last record written *)
  (match (seqs, List.rev seqs) with
  | first :: _, last :: _ ->
      Alcotest.(check int) "newest record survived" total last;
      Alcotest.(check int)
        "contiguous suffix" (last - first + 1) (List.length seqs)
  | _ -> Alcotest.fail "no records survived");
  ignore
    (List.fold_left
       (fun prev s ->
         if s <> prev + 1 then Alcotest.failf "gap: %d after %d" s prev;
         s)
       (List.hd seqs - 1) seqs)

let test_rotation_concurrent_domains () =
  (* four domains hammer one ledger across forced rotations; with keep
     high enough that nothing is deleted, not one record may be lost,
     duplicated, or torn *)
  with_clean_ledger @@ fun () ->
  with_tmp_ledger @@ fun path ->
  Ledger.open_file ~truncate:true ~max_bytes:8192 ~keep:64 path;
  let domains = 4 and per_domain = 150 in
  let workers =
    Array.init domains (fun d ->
        Domain.spawn (fun () ->
            for i = 1 to per_domain do
              Ledger.record
                ~kind:(Printf.sprintf "load.d%d" d)
                ~params:[ ("i", Json.Int i) ]
                ~wall_seconds:0.001 ()
            done))
  in
  Array.iter Domain.join workers;
  Ledger.close ();
  let segs = Store.segments path in
  if List.length segs < 2 then
    Alcotest.failf "expected forced rotation, got %d segment(s)"
      (List.length segs);
  let seqs, stats = seqs_of_path path in
  Alcotest.(check int) "no torn lines" 0 stats.Ledger.malformed;
  let total = domains * per_domain in
  Alcotest.(check int) "no records lost" total (List.length seqs);
  let sorted = List.sort_uniq compare seqs in
  Alcotest.(check int) "no duplicate seqs" total (List.length sorted);
  Alcotest.(check int) "seq range 1..total" total (List.nth sorted (total - 1))

let test_fold_file_torn_tail () =
  with_clean_ledger @@ fun () ->
  with_tmp_ledger @@ fun path ->
  Ledger.open_file ~truncate:true path;
  for _ = 1 to 5 do
    sample_record ()
  done;
  Ledger.close ();
  (* a crashed writer's partial last line: no trailing newline, not
     even valid JSON *)
  let oc = open_out_gen [ Open_append; Open_binary ] 0o644 path in
  output_string oc {|{"schema":"urs-ledger/2","kind":"tru|};
  close_out oc;
  match Ledger.fold_file path ~init:0 ~f:(fun n _ -> n + 1) with
  | Error e -> Alcotest.failf "fold_file: %s" e
  | Ok (n, stats) ->
      Alcotest.(check int) "complete records kept" 5 n;
      Alcotest.(check int) "torn line counted" 1 stats.Ledger.malformed

let test_flush_batching () =
  with_clean_ledger @@ fun () ->
  with_tmp_ledger @@ fun path ->
  (* flush_every 64: records sit in the buffer until the batch fills
     or the ledger closes *)
  Ledger.open_file ~truncate:true ~flush_every:64 path;
  for _ = 1 to 3 do
    sample_record ()
  done;
  let count () =
    match Ledger.fold_file path ~init:0 ~f:(fun n _ -> n + 1) with
    | Ok (n, _) -> n
    | Error _ -> 0
  in
  Alcotest.(check int) "buffered, nothing visible yet" 0 (count ());
  Ledger.close ();
  Alcotest.(check int) "close flushes the batch" 3 (count ());
  (* the default flush_every 1 makes every record immediately visible *)
  Ledger.open_file ~truncate:true path;
  sample_record ();
  Alcotest.(check int) "flushed per record" 1 (count ());
  Ledger.close ()

let test_rotation_many_segments () =
  (* one record per segment and a retention that deletes nothing: the
     readers must find every one of the 90 segments, far past any
     fixed cap on rotated-file numbers *)
  with_clean_ledger @@ fun () ->
  with_tmp_ledger @@ fun path ->
  Ledger.open_file ~truncate:true ~max_bytes:1 ~keep:100 path;
  for _ = 1 to 90 do
    sample_record ()
  done;
  Ledger.close ();
  Alcotest.(check int) "every segment listed" 90
    (List.length (Store.segments path));
  let seqs, _ = seqs_of_path path in
  Alcotest.(check (list int)) "every record read, in order"
    (List.init 90 (fun i -> i + 1)) seqs

(* ---- query engine ---- *)

module Query = Urs_obs.Query

let qrec ~seq ~time ~kind ?route ~wall () =
  let params =
    match route with
    | None -> []
    | Some r -> [ ("route", Json.String r) ]
  in
  match
    Ledger.of_json
      (Json.Obj
         [ ("seq", Json.Int seq); ("time", Json.Float time);
           ("kind", Json.String kind); ("params", Json.Obj params);
           ("wall_seconds", Json.Float wall);
           ("outcome", Json.String "ok") ])
  with
  | Ok r -> r
  | Error e -> Alcotest.failf "qrec: %s" e

(* the column-aligned printer behind urs query and urs report *)
let test_text_table () =
  Alcotest.(check string)
    "aligned, last column unpadded" "a    bb\n---  --\nccc  d\n"
    (Query.text_table [ [ "a"; "bb" ]; [ "ccc"; "d" ] ]);
  Alcotest.(check string) "no columns" "\n\n" (Query.text_table [ [] ]);
  Alcotest.(check string) "no rows" "" (Query.text_table [])

let test_query_agg_goldens () =
  let walls = [ 3.0; 1.0; 4.0; 1.0; 5.0; 9.0; 2.0; 6.0 ] in
  let records =
    List.mapi
      (fun i w -> qrec ~seq:(i + 1) ~time:(float_of_int i) ~kind:"k" ~wall:w ())
      walls
  in
  let aggs =
    [ Query.Count; Query.Rate; Query.Mean Query.Wall_seconds;
      Query.Stddev Query.Wall_seconds; Query.Min Query.Wall_seconds;
      Query.Max Query.Wall_seconds;
      Query.Quantile (0.9, Query.Wall_seconds) ]
  in
  let r = Query.run_records ~aggs records in
  match r.Query.rows with
  | [ { Query.cells = [ count; rate; mean; stddev; mn; mx; p90 ]; _ } ] ->
      (* the aggregations must agree with the library's own estimators
         to the last bit *)
      let w = Urs_stats.Welford.create () in
      List.iter (Urs_stats.Welford.add w) walls;
      check_float "count" 8.0 count;
      (* 8 records over times 0..7: (count-1)/span *)
      check_float "rate" 1.0 rate;
      check_float "mean" (Urs_stats.Welford.mean w) mean;
      check_float "stddev" (Urs_stats.Welford.std_dev w) stddev;
      check_float "min" 1.0 mn;
      check_float "max" 9.0 mx;
      check_float "p90"
        (Urs_stats.Empirical.quantile (Array.of_list walls) 0.9)
        p90
  | rows -> Alcotest.failf "expected 1 row, got %d" (List.length rows)

let test_query_filter_group () =
  let records =
    [ qrec ~seq:1 ~time:1.0 ~kind:"http.access" ~route:"/solve" ~wall:0.1 ();
      qrec ~seq:2 ~time:2.0 ~kind:"http.access" ~route:"/solve" ~wall:0.2 ();
      qrec ~seq:3 ~time:3.0 ~kind:"http.access" ~route:"/metrics" ~wall:0.3 ();
      qrec ~seq:4 ~time:4.0 ~kind:"solve" ~wall:0.4 () ]
  in
  let filter = { Query.no_filter with kind = Some "http.access" } in
  let r =
    Query.run_records ~filter ~group_by:[ Query.Route ]
      ~aggs:[ Query.Count ] records
  in
  Alcotest.(check int) "matched" 3 r.Query.matched;
  Alcotest.(check (list (pair (list string) (list (float 1e-9)))))
    "per-route counts"
    [ ([ "/metrics" ], [ 1.0 ]); ([ "/solve" ], [ 2.0 ]) ]
    (List.map (fun row -> (row.Query.group, row.Query.cells)) r.Query.rows);
  (* time-window filter is inclusive on both ends *)
  let windowed =
    Query.run_records
      ~filter:{ Query.no_filter with since = Some 2.0; until = Some 3.0 }
      records
  in
  Alcotest.(check int) "window matched" 2 windowed.Query.matched

let test_query_parse_grammar () =
  (match Query.parse_agg "p99(wall_seconds)" with
  | Ok (Query.Quantile (p, Query.Wall_seconds)) -> check_float "p" 0.99 p
  | Ok _ -> Alcotest.fail "wrong agg"
  | Error e -> Alcotest.fail e);
  Alcotest.(check string)
    "label roundtrip" "p99(wall_seconds)"
    (Query.agg_label (Query.Quantile (0.99, Query.Wall_seconds)));
  (match Query.parse_group_by "kind,route" with
  | Ok [ Query.Kind; Query.Route ] -> ()
  | Ok _ -> Alcotest.fail "wrong keys"
  | Error e -> Alcotest.fail e);
  List.iter
    (fun bad ->
      match Query.parse_agg bad with
      | Ok _ -> Alcotest.failf "parse_agg accepted %S" bad
      | Error _ -> ())
    [ ""; "bogus"; "p0(wall_seconds)"; "p100(x)"; "mean()"; "mean" ];
  match Query.parse_key "nope" with
  | Ok _ -> Alcotest.fail "parse_key accepted nonsense"
  | Error _ -> ()

let test_query_over_segments () =
  with_clean_ledger @@ fun () ->
  with_tmp_ledger @@ fun path ->
  Ledger.open_file ~truncate:true ~max_bytes:2048 ~keep:32 path;
  for _ = 1 to 30 do
    Ledger.record ~kind:"solve" ~wall_seconds:0.01 ()
  done;
  Ledger.close ();
  match
    Query.run ~filter:{ Query.no_filter with kind = Some "solve" } path
  with
  | Error e -> Alcotest.failf "query: %s" e
  | Ok r ->
      Alcotest.(check bool) "spans rotated segments" true (r.Query.segments > 1);
      Alcotest.(check int) "nothing lost across rotation" 30 r.Query.matched

(* Records in increasing time (ties included) from a few kinds and
   routes, the segment size (1 byte puts every record in its own
   segment, so a long draw passes 64 segments), and a random filter and
   grouping. Times sit near a real Unix epoch so they print like a real
   ledger's; wall times are arbitrary doubles, so the JSON round trip
   has to be exact. *)
let gen_scan_case =
  let open QCheck2.Gen in
  let kinds = [ "solve"; "http.access"; "sweep.point" ] in
  let routes = [ "/solve"; "/healthz"; "/metrics" ] in
  let t0 = 1.7e9 in
  let* steps =
    list_size (int_range 0 120)
      (triple (oneofl kinds) (oneofl routes)
         (pair (oneofl [ 0.0; 0.25; 1.0; 7.5 ]) (float_range 0.0 1.0)))
  in
  let* max_bytes = oneofl [ 1; 400; 1500; 100_000 ] in
  let* kind = opt (oneofl ("absent" :: kinds)) in
  let* route = opt (oneofl routes) in
  let window = opt (map (fun d -> t0 +. d) (float_range 0.0 300.0)) in
  let* since = window in
  let* until = window in
  let* group_by =
    oneofl Query.[ []; [ Kind ]; [ Route ]; [ Kind; Route ] ]
  in
  let time = ref t0 in
  let records =
    List.mapi
      (fun i (kind, route, (gap, wall_seconds)) ->
        time := !time +. gap;
        {
          Ledger.seq = i + 1;
          time = !time;
          kind;
          strategy = None;
          params =
            (if kind = "http.access" then [ ("route", Json.String route) ]
             else []);
          wall_seconds;
          outcome = "ok";
          summary = [];
          gauges = [];
          trace_id = None;
          span_id = None;
        })
      steps
  in
  return
    (records, max_bytes, { Query.no_filter with kind; route; since; until },
     group_by)

let print_scan_case (records, max_bytes, (f : Query.filter), group_by) =
  let opt pp = function None -> "-" | Some v -> pp v in
  Printf.sprintf
    "max_bytes %d, kind %s, route %s, since %s, until %s, group-by [%s]\n%s"
    max_bytes (opt Fun.id f.kind) (opt Fun.id f.route)
    (opt string_of_float f.since) (opt string_of_float f.until)
    (String.concat "," (List.map Query.key_label group_by))
    (String.concat "\n"
       (List.map (fun r -> Json.to_string (Ledger.to_json r)) records))

(* A query over a rotated ledger on disk answers exactly like the same
   engine over the same records in memory: every segment is read,
   oldest first, and every record round-trips through its JSON line. *)
let scan_matches_memory =
  QCheck2.Test.make ~name:"file scan = in-memory engine" ~count:60
    ~print:print_scan_case gen_scan_case
    (fun (records, max_bytes, filter, group_by) ->
      with_tmp_ledger @@ fun path ->
      (* a retention that deletes nothing: one rotation per record at
         most *)
      let st =
        Store.open_ ~truncate:true ~max_bytes
          ~keep:(List.length records + 1) path
      in
      List.iter
        (fun r -> Store.write st (Json.to_string (Ledger.to_json r)))
        records;
      Store.close st;
      let aggs =
        Query.[ Count; Rate; Mean Wall_seconds; Quantile (0.9, Wall_seconds) ]
      in
      let mem = Query.run_records ~filter ~group_by ~aggs records in
      match Query.run ~filter ~group_by ~aggs path with
      | Error e -> QCheck2.Test.fail_reportf "query: %s" e
      | Ok disk ->
          let same_row (a : Query.row) (b : Query.row) =
            a.group = b.group && List.equal Float.equal a.cells b.cells
          in
          (disk.Query.parsed = mem.Query.parsed
          && disk.Query.matched = mem.Query.matched
          && List.equal same_row disk.Query.rows mem.Query.rows)
          || QCheck2.Test.fail_reportf
               "disk: %d parsed, %d matched, %d row(s) in %d segment(s); \
                memory: %d parsed, %d matched, %d row(s)"
               disk.Query.parsed disk.Query.matched
               (List.length disk.Query.rows) disk.Query.segments
               mem.Query.parsed mem.Query.matched
               (List.length mem.Query.rows))

(* ---- tail cursor and /tail route ---- *)

let test_since_cursor_truncation () =
  with_clean_ledger @@ fun () ->
  Ledger.set_memory true;
  for _ = 1 to 5 do
    sample_record ()
  done;
  let page, cursor = Ledger.since ~limit:2 ~seq:0 () in
  Alcotest.(check (list int))
    "first page" [ 1; 2 ]
    (List.map (fun r -> r.Ledger.seq) page);
  (* truncated page: the cursor stops at the last delivered record *)
  Alcotest.(check int) "cursor resumes at page end" 2 cursor;
  let page2, cursor2 = Ledger.since ~limit:10 ~seq:cursor () in
  Alcotest.(check (list int))
    "second page" [ 3; 4; 5 ]
    (List.map (fun r -> r.Ledger.seq) page2);
  Alcotest.(check int) "exhausted cursor = counter" 5 cursor2;
  let empty, cursor3 = Ledger.since ~seq:cursor2 () in
  Alcotest.(check int) "no new records" 0 (List.length empty);
  Alcotest.(check int) "cursor stable" 5 cursor3;
  (* a kind filter that matches nothing still advances the cursor *)
  let none, c = Ledger.since ~kind:"nope" ~seq:0 () in
  Alcotest.(check int) "filtered empty" 0 (List.length none);
  Alcotest.(check int) "filter skips ahead" 5 c

let test_wait_since_timeout () =
  with_clean_ledger @@ fun () ->
  Ledger.set_memory true;
  let t0 = Unix.gettimeofday () in
  let rs, _ = Ledger.wait_since ~seq:0 ~timeout_s:0.15 () in
  let waited = Unix.gettimeofday () -. t0 in
  Alcotest.(check int) "nothing arrived" 0 (List.length rs);
  if waited < 0.1 then Alcotest.failf "returned too early (%.3fs)" waited;
  (* with records already buffered it answers immediately *)
  sample_record ();
  let rs, _ = Ledger.wait_since ~seq:0 ~timeout_s:5.0 () in
  Alcotest.(check int) "immediate answer" 1 (List.length rs)

let test_tail_route () =
  with_clean_ledger @@ fun () ->
  Ledger.set_memory true;
  for _ = 1 to 3 do
    sample_record ()
  done;
  Alcotest.(check bool) "registered in standard routes" true
    (List.mem_assoc "/tail" Routes.standard);
  let resp = Routes.tail_response [ ("since_seq", "0"); ("n", "2") ] in
  Alcotest.(check int) "200" 200 resp.Http.status;
  (match Json.of_string (String.trim resp.Http.body) with
  | Error e -> Alcotest.failf "body: %s" e
  | Ok j ->
      let num k = Option.bind (Json.member k j) Json.to_float_opt in
      check_float "count" 2.0 (Option.get (num "count"));
      check_float "truncated cursor" 2.0 (Option.get (num "seq"));
      match Json.member "records" j with
      | Some (Json.List [ _; _ ]) -> ()
      | _ -> Alcotest.fail "expected 2 records");
  let bad = Routes.tail_response [ ("since_seq", "-3") ] in
  Alcotest.(check int) "negative cursor rejected" 400 bad.Http.status

(* ---- perf drift detection ---- *)

let test_perf_detect_drift () =
  let entry i factor =
    {
      Perf.time = 1000.0 +. (3600.0 *. float_of_int i);
      git_rev = Printf.sprintf "r%02d" i;
      ocaml = "5.1.0";
      jobs = 1;
      sections = [];
      solvers =
        [ ( "spectral",
            {
              Perf.seconds = 0.0026 *. factor;
              minor_words = 1.0;
              promoted_words = 0.0;
              major_words = 0.0;
            } ) ];
    }
  in
  let entries =
    List.init 24 (fun i -> entry i (if i >= 16 then 2.0 else 1.0))
  in
  (match Perf.detect_drift entries with
  | [ d ] ->
      Alcotest.(check string) "solver" "spectral" d.Perf.d_solver;
      Alcotest.(check bool) "gated" true d.Perf.d_gated;
      Alcotest.(check string) "commit the step arrived with" "r16"
        d.Perf.d_git_rev;
      check_float ~tol:0.2 "2x ratio" 2.0 d.Perf.d_ratio;
      Alcotest.(check int) "regression subset" 1
        (List.length (Perf.drift_regressions [ d ]))
  | ds -> Alcotest.failf "expected 1 drift, got %d" (List.length ds));
  (* a short tail — like the committed history — never flags *)
  let short = List.init 4 (fun i -> entry i 1.0) in
  Alcotest.(check int) "short history quiet" 0
    (List.length (Perf.detect_drift short))

let () =
  Alcotest.run "urs_obs"
    [
      ( "metrics",
        [
          Alcotest.test_case "counter semantics" `Quick test_counter_semantics;
          Alcotest.test_case "idempotent registration" `Quick
            test_registration_idempotent;
          Alcotest.test_case "label canonicalization" `Quick
            test_label_canonicalization;
          Alcotest.test_case "invalid name" `Quick test_invalid_name;
          Alcotest.test_case "gauge semantics" `Quick test_gauge_semantics;
          Alcotest.test_case "histogram semantics" `Quick
            test_histogram_semantics;
          Alcotest.test_case "bad buckets" `Quick test_histogram_bad_buckets;
          Alcotest.test_case "reset keeps handles" `Quick
            test_reset_keeps_handles;
          Alcotest.test_case "value lookup" `Quick test_value_lookup;
        ] );
      ( "spans",
        [
          Alcotest.test_case "records duration" `Quick
            test_span_records_duration;
          Alcotest.test_case "exception safe" `Quick test_span_exception_safe;
          Alcotest.test_case "trace tree" `Quick test_span_trace_tree;
          Alcotest.test_case "tracing off still measures" `Quick
            test_tracing_disabled_still_measures;
        ] );
      ( "export",
        [
          Alcotest.test_case "json rendering" `Quick test_json_render;
          Alcotest.test_case "prometheus golden" `Quick test_prometheus_golden;
          Alcotest.test_case "prometheus label escaping" `Quick
            test_prometheus_label_escaping;
          Alcotest.test_case "json golden" `Quick test_json_golden;
          Alcotest.test_case "skip_zero" `Quick test_skip_zero;
          Alcotest.test_case "degenerate summaries" `Quick
            test_degenerate_summary_json;
          Alcotest.test_case "TYPE header once per family" `Quick
            test_prometheus_type_once;
          Alcotest.test_case "label and help escaping" `Quick
            test_export_escaping;
        ] );
      ( "json-parser",
        [
          Alcotest.test_case "round-trip" `Quick test_json_parse_roundtrip;
          Alcotest.test_case "rejects malformed" `Quick test_json_parse_errors;
          Alcotest.test_case "accessors" `Quick test_json_accessors;
        ] );
      ( "ledger",
        [
          Alcotest.test_case "inactive no-op" `Quick test_ledger_inactive_noop;
          Alcotest.test_case "file round-trip" `Quick
            test_ledger_file_roundtrip;
          Alcotest.test_case "memory ring" `Quick test_ledger_memory_ring;
          Alcotest.test_case "concurrent reads" `Quick
            test_ledger_concurrent_reads;
          Alcotest.test_case "malformed line" `Quick
            test_ledger_malformed_line;
          Alcotest.test_case "trace stamps" `Quick test_ledger_trace_stamps;
          Alcotest.test_case "schema compat" `Quick test_ledger_schema_compat;
        ] );
      ( "context",
        [
          Alcotest.test_case "seeded determinism" `Quick
            test_context_determinism;
          Alcotest.test_case "traceparent golden" `Quick
            test_traceparent_golden;
          Alcotest.test_case "traceparent rejections" `Quick
            test_traceparent_rejections;
          QCheck_alcotest.to_alcotest traceparent_roundtrip_prop;
          Alcotest.test_case "ambient install/restore" `Quick
            test_context_ambient;
          Alcotest.test_case "span ids in trace" `Quick test_span_trace_ids;
        ] );
      ( "http",
        [
          Alcotest.test_case "smoke" `Quick test_http_smoke;
          Alcotest.test_case "metrics route" `Quick test_http_metrics_route;
          Alcotest.test_case "query helpers" `Quick test_query_helpers;
          Alcotest.test_case "request middleware" `Quick test_http_middleware;
          Alcotest.test_case "client timeout on silent server" `Quick
            test_http_client_timeout;
          Alcotest.test_case "post body vetting" `Quick test_http_post_vetting;
        ] );
      ( "quantiles",
        [
          Alcotest.test_case "boundary exactness" `Quick test_quantile_boundary;
          Alcotest.test_case "nan cases" `Quick test_quantile_nan_cases;
          Alcotest.test_case "vs empirical quantile" `Quick
            test_quantile_vs_empirical;
        ] );
      ( "routes",
        [
          Alcotest.test_case "metrics content type and formats" `Quick
            test_metrics_route_content_type;
        ] );
      ( "slo",
        [
          Alcotest.test_case "objective parsing" `Quick test_slo_parse;
          Alcotest.test_case "burn rate and breach" `Quick
            test_slo_burn_and_breach;
          Alcotest.test_case "latency sli" `Quick test_slo_latency_sli;
          Alcotest.test_case "young engine" `Quick test_slo_young_engine;
        ] );
      ( "timeline",
        [
          Alcotest.test_case "bounded and ordered" `Quick test_timeline_bounded;
          Alcotest.test_case "growth matches coarsen" `Quick
            test_timeline_growth_matches_coarsen;
          Alcotest.test_case "coarsen idempotent" `Quick
            test_timeline_coarsen_idempotent;
          Alcotest.test_case "horizon layout" `Quick
            test_timeline_horizon_layout;
          Alcotest.test_case "pool determinism" `Quick
            test_timeline_pool_determinism;
          QCheck_alcotest.to_alcotest timeline_matches_reference;
          Alcotest.test_case "record_block rejects short arrays" `Quick
            test_record_block_rejects_short_arrays;
          Alcotest.test_case "pinned replication buckets" `Quick
            test_timeline_pinned_replication;
          Alcotest.test_case "snapshots while blocks land" `Quick
            test_timeline_snapshots_while_blocks_land;
        ] );
      ( "progress",
        [
          Alcotest.test_case "rate and eta" `Quick test_progress_rate_and_eta;
        ] );
      ( "perfetto",
        [
          Alcotest.test_case "export" `Quick test_perfetto_export;
          Alcotest.test_case "extra events merge" `Quick
            test_perfetto_extra_merge;
        ] );
      ( "runtime",
        [
          Alcotest.test_case "measure" `Quick test_runtime_measure;
          Alcotest.test_case "profiling switch" `Quick
            test_runtime_profiling_switch;
          Alcotest.test_case "events kill-switch" `Quick
            test_runtime_events_killswitch;
          Alcotest.test_case "events capture" `Quick
            test_runtime_events_capture;
          Alcotest.test_case "events restart" `Quick
            test_runtime_events_restart;
          Alcotest.test_case "span gc profiling" `Quick test_span_gc_profiling;
        ] );
      ( "perf-history",
        [
          Alcotest.test_case "entry json round-trip" `Quick
            test_perf_json_roundtrip;
          Alcotest.test_case "append and read" `Quick test_perf_append_read;
          Alcotest.test_case "analyze and breach" `Quick
            test_perf_analyze_breach;
          Alcotest.test_case "renderings" `Quick test_perf_renderings;
          Alcotest.test_case "ledger digest" `Quick test_perf_ledger_digest;
        ] );
      ( "convergence",
        [
          Alcotest.test_case "recorder basics" `Quick test_conv_recorder_basics;
          Alcotest.test_case "finish idempotent" `Quick
            test_conv_finish_idempotent;
          Alcotest.test_case "with_recording window" `Quick
            test_conv_with_recording;
          Alcotest.test_case "global ring bound" `Quick test_conv_ring_bound;
          Alcotest.test_case "export shapes" `Quick test_conv_export_shapes;
          Alcotest.test_case "metrics and ledger" `Quick
            test_conv_metrics_and_ledger;
          Alcotest.test_case "pp flags stalls" `Quick
            test_conv_pp_not_converged;
          Alcotest.test_case "track with recording off" `Quick test_track_off;
          Alcotest.test_case "track finishes with the caller's flag" `Quick
            test_track_on;
          Alcotest.test_case "track on a raising kernel" `Quick
            test_track_raising_kernel;
          Alcotest.test_case "solver traces pinned" `Quick test_solver_traces;
        ] );
      ( "ledger-rotation",
        [
          Alcotest.test_case "retention bound" `Quick test_rotation_retention;
          Alcotest.test_case "concurrent domains" `Quick
            test_rotation_concurrent_domains;
          Alcotest.test_case "torn tail" `Quick test_fold_file_torn_tail;
          Alcotest.test_case "flush batching" `Quick test_flush_batching;
          Alcotest.test_case "more than 64 segments" `Quick
            test_rotation_many_segments;
        ] );
      ( "ledger-query",
        [
          Alcotest.test_case "aggregation goldens" `Quick
            test_query_agg_goldens;
          Alcotest.test_case "text table" `Quick test_text_table;
          Alcotest.test_case "filter and group" `Quick test_query_filter_group;
          Alcotest.test_case "grammar" `Quick test_query_parse_grammar;
          Alcotest.test_case "spans rotated segments" `Quick
            test_query_over_segments;
          QCheck_alcotest.to_alcotest scan_matches_memory;
        ] );
      ( "tail",
        [
          Alcotest.test_case "since cursor truncation" `Quick
            test_since_cursor_truncation;
          Alcotest.test_case "wait_since timeout" `Quick
            test_wait_since_timeout;
          Alcotest.test_case "/tail route" `Quick test_tail_route;
        ] );
      ( "perf-drift",
        [
          Alcotest.test_case "detect and attribute" `Quick
            test_perf_detect_drift;
        ] );
      ( "build-info",
        [ Alcotest.test_case "gauge" `Quick test_build_info ] );
      ( "stats-histogram",
        [ Alcotest.test_case "golden" `Quick test_stats_histogram_golden ] );
      ( "integration",
        [
          Alcotest.test_case "spectral solve metrics" `Quick
            test_spectral_solve_metrics;
          Alcotest.test_case "evaluate sets what the plan check reads" `Quick
            test_evaluate_perfbench_reads;
          Alcotest.test_case "matrix-geometric sp(R) computed once" `Quick
            test_evaluate_mg_radius_once;
          Alcotest.test_case "sweep gauges are each solve's own (4 domains)"
            `Quick test_sweep_gauges_own_solve;
        ] );
    ]
