(* Declarative service-level objectives over the metrics registry,
   evaluated with multi-window burn rates (Google SRE workbook style).

   Both objective kinds reduce to a "bad fraction against a budget":

   - [p99 < 50ms] means "at most 1% of requests exceed 50ms" — the
     budget is 1 - 0.99 and a request is bad when its latency lies
     above the threshold, estimated from the fixed-bucket latency
     histogram by Metrics.histogram_count_above.
   - [error_rate < 0.1%] budgets the fraction of requests answered
     with a 5xx status, read off the urs_http_requests_total{code}
     counters.

   The burn rate of a window is (Δbad/Δtotal)/budget over that window:
   1.0 means errors arrive exactly as fast as the budget allows; an
   objective breaches when EVERY window burns above 1 — the fast
   window makes the alarm responsive, the slow window keeps a brief
   blip from paging. Cumulative (bad, total) samples are taken on
   every tick/evaluate under a pluggable clock, so tests (and the
   doctor's slo stage) can replay hours in microseconds. *)

type window = { label : string; seconds : float }

let default_windows =
  [ { label = "5m"; seconds = 300.0 }; { label = "1h"; seconds = 3600.0 } ]

type sli =
  | Latency of { metric : string; q : float; threshold_s : float }
  | Error_rate of { metric : string }

type objective = { name : string; sli : sli; budget : float }

let default_latency_metric = "urs_http_request_seconds"
let default_error_metric = "urs_http_requests_total"

let describe_sli = function
  | Latency { q; threshold_s; _ } ->
      let unit_, v =
        if threshold_s < 1e-3 then ("us", threshold_s *. 1e6)
        else if threshold_s < 1.0 then ("ms", threshold_s *. 1e3)
        else ("s", threshold_s)
      in
      Printf.sprintf "p%g < %g%s" (q *. 100.0) v unit_
  | Error_rate _ -> "error_rate"

(* ---- objective parsing ----

   SPEC := [NAME ":"] EXPR
   EXPR := "p" FLOAT ["(" METRIC ")"] "<" DURATION
         | "error_rate" ["(" METRIC ")"] "<" PERCENT
   DURATION := FLOAT ("us" | "ms" | "s")
   PERCENT := FLOAT "%" | FLOAT        (bare floats are fractions) *)

let strip s = String.trim s

let split_name spec =
  match String.index_opt spec ':' with
  | Some i ->
      ( Some (strip (String.sub spec 0 i)),
        strip (String.sub spec (i + 1) (String.length spec - i - 1)) )
  | None -> (None, strip spec)

let split_metric head =
  (* "p99(urs_http_request_seconds)" -> ("p99", Some metric) *)
  match String.index_opt head '(' with
  | None -> Ok (strip head, None)
  | Some i ->
      if head.[String.length head - 1] <> ')' then
        Error "unbalanced parenthesis in metric override"
      else
        let metric = strip (String.sub head (i + 1) (String.length head - i - 2)) in
        if Metrics.is_valid_name metric then
          Ok (strip (String.sub head 0 i), Some metric)
        else Error (Printf.sprintf "invalid metric name %S" metric)

let parse_duration s =
  let s = strip s in
  let with_suffix suffix scale =
    let n = String.length s and m = String.length suffix in
    if n > m && String.sub s (n - m) m = suffix then
      Option.map
        (fun v -> v *. scale)
        (float_of_string_opt (String.sub s 0 (n - m)))
    else None
  in
  (* "us" before "s": the longer suffix must win *)
  match with_suffix "us" 1e-6 with
  | Some v -> Some v
  | None -> (
      match with_suffix "ms" 1e-3 with
      | Some v -> Some v
      | None -> with_suffix "s" 1.0)

let parse_percent s =
  let s = strip s in
  let n = String.length s in
  if n > 1 && s.[n - 1] = '%' then
    Option.map (fun v -> v /. 100.0) (float_of_string_opt (String.sub s 0 (n - 1)))
  else float_of_string_opt s

let parse_objective spec =
  let name, expr = split_name spec in
  match String.index_opt expr '<' with
  | None -> Error (Printf.sprintf "%S: expected \"<lhs> < <target>\"" spec)
  | Some i -> (
      let lhs = strip (String.sub expr 0 i) in
      let rhs = strip (String.sub expr (i + 1) (String.length expr - i - 1)) in
      match split_metric lhs with
      | Error msg -> Error (Printf.sprintf "%S: %s" spec msg)
      | Ok (head, metric) ->
          let name = Option.value name ~default:expr in
          if head = "error_rate" then
            match parse_percent rhs with
            | Some budget when budget > 0.0 && budget < 1.0 ->
                Ok
                  {
                    name;
                    sli =
                      Error_rate
                        {
                          metric =
                            Option.value metric ~default:default_error_metric;
                        };
                    budget;
                  }
            | Some _ -> Error (Printf.sprintf "%S: rate must be in (0,1)" spec)
            | None -> Error (Printf.sprintf "%S: cannot parse rate %S" spec rhs)
          else if String.length head > 1 && head.[0] = 'p' then
            match
              float_of_string_opt (String.sub head 1 (String.length head - 1))
            with
            | Some pct when pct > 0.0 && pct < 100.0 -> (
                match parse_duration rhs with
                | Some threshold_s when threshold_s > 0.0 ->
                    let q = pct /. 100.0 in
                    Ok
                      {
                        name;
                        sli =
                          Latency
                            {
                              metric =
                                Option.value metric
                                  ~default:default_latency_metric;
                              q;
                              threshold_s;
                            };
                        budget = 1.0 -. q;
                      }
                | Some _ ->
                    Error (Printf.sprintf "%S: threshold must be positive" spec)
                | None ->
                    Error
                      (Printf.sprintf
                         "%S: cannot parse duration %S (use us/ms/s)" spec rhs))
            | _ ->
                Error
                  (Printf.sprintf "%S: quantile must be in (0,100), e.g. p99"
                     spec)
          else
            Error
              (Printf.sprintf
                 "%S: unknown objective %S (expected pNN or error_rate)" spec
                 head))

(* ---- counting good and bad events in a snapshot ---- *)

(* merge every label set of one histogram family (bucket bounds are per
   family, so the arrays line up) *)
let merged_histogram entries metric =
  List.fold_left
    (fun acc (e : Metrics.entry) ->
      if e.Metrics.name <> metric then acc
      else
        match e.Metrics.data with
        | Metrics.Histogram_value h -> (
            match acc with
            | None -> Some (h.bounds, Array.copy h.counts)
            | Some (bounds, counts) when Array.length counts = Array.length h.counts ->
                Array.iteri (fun i c -> counts.(i) <- counts.(i) + c) h.counts;
                Some (bounds, counts)
            | Some _ -> acc)
        | _ -> acc)
    None entries

let is_5xx labels =
  match List.assoc_opt "code" labels with
  | Some code -> (
      match int_of_string_opt code with Some c -> c >= 500 | None -> false)
  | None -> false

(* cumulative (bad, total) for one objective *)
let count_sli entries = function
  | Latency { metric; threshold_s; _ } -> (
      match merged_histogram entries metric with
      | None -> (0.0, 0.0)
      | Some (bounds, counts) ->
          let total = float_of_int (Array.fold_left ( + ) 0 counts) in
          let bad = Metrics.histogram_count_above ~bounds ~counts threshold_s in
          ((if Float.is_nan bad then 0.0 else bad), total))
  | Error_rate { metric } ->
      List.fold_left
        (fun (bad, total) (e : Metrics.entry) ->
          if e.Metrics.name <> metric then (bad, total)
          else
            match e.Metrics.data with
            | Metrics.Counter_value v ->
                ((if is_5xx e.Metrics.labels then bad +. v else bad), total +. v)
            | _ -> (bad, total))
        (0.0, 0.0) entries

(* the instantaneous value shown next to the target: the interpolated
   quantile for latency objectives, the cumulative error rate otherwise *)
let current_value entries = function
  | Latency { metric; q; _ } -> (
      match merged_histogram entries metric with
      | None -> nan
      | Some (bounds, counts) -> Metrics.histogram_quantile ~bounds ~counts q)
  | Error_rate _ as sli ->
      let bad, total = count_sli entries sli in
      if total > 0.0 then bad /. total else 0.0

(* ---- the engine ---- *)

type sample = { time : float; counts : (float * float) array }

type t = {
  objectives : objective array;
  clock : unit -> float;
  windows : window list;
  registry : Metrics.t;
  mutable samples : sample list; (* newest first; bounded (see retain) *)
  lock : Mutex.t;
}

let take_sample t =
  let entries = Metrics.snapshot ~registry:t.registry () in
  {
    time = t.clock ();
    counts = Array.map (fun o -> count_sli entries o.sli) t.objectives;
  }

let max_window t =
  List.fold_left (fun m w -> Float.max m w.seconds) 0.0 t.windows

(* keep every sample young enough to serve any window, plus one older
   sample as the baseline of the slow window *)
let retain t now samples =
  let cutoff = now -. max_window t in
  let rec go kept = function
    | [] -> List.rev kept
    | s :: rest ->
        if s.time >= cutoff then go (s :: kept) rest
        else List.rev (s :: kept) (* first sample at/past the horizon *)
  in
  go [] samples

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let create ?(clock = Span.now) ?(windows = default_windows)
    ?(registry = Metrics.default) objectives =
  if objectives = [] then invalid_arg "Slo.create: no objectives";
  if windows = [] then invalid_arg "Slo.create: no windows";
  let t =
    {
      objectives = Array.of_list objectives;
      clock;
      windows;
      registry;
      samples = [];
      lock = Mutex.create ();
    }
  in
  (* the baseline sample: burn rates are deltas against it, so traffic
     served before the engine existed is never charged *)
  t.samples <- [ take_sample t ];
  t

let objectives t = Array.to_list t.objectives

let tick t =
  let s = take_sample t in
  locked t (fun () -> t.samples <- retain t s.time (s :: t.samples))

(* ---- evaluation ---- *)

type window_eval = {
  window : string;
  window_s : float;
  span_s : float;  (** time actually covered (< window_s on young engines) *)
  bad : float;
  total : float;
  burn_rate : float;
}

type eval = {
  objective : objective;
  current : float;
  cumulative_bad : float;
  cumulative_total : float;
  windows : window_eval list;
  breached : bool;
}

let burn_gauge t ~objective ~window =
  Metrics.gauge ~registry:t.registry
    ~help:"SLO burn rate per window (1.0 = spending exactly the budget)"
    ~labels:[ ("objective", objective); ("window", window) ]
    "urs_slo_burn_rate"

let breached_gauge t ~objective =
  Metrics.gauge ~registry:t.registry
    ~help:"1 when the objective is breached (every window burning > 1)"
    ~labels:[ ("objective", objective) ]
    "urs_slo_breached"

let eval_objective (t : t) ~now ~samples ~newest i o =
  let bad_now, total_now = newest.counts.(i) in
  let windows =
    List.map
      (fun w ->
        (* the youngest sample old enough to cover the window; falling
           back to the oldest retained sample keeps young engines
           honest (they evaluate over the span they actually have) *)
        let baseline =
          let rec go best = function
            | [] -> best
            | s :: rest ->
                if s.time <= now -. w.seconds then
                  (* newest-first: the first match is the youngest *)
                  s
                else go s rest
          in
          go newest samples
        in
        let bad_then, total_then = baseline.counts.(i) in
        let bad = Float.max 0.0 (bad_now -. bad_then) in
        let total = Float.max 0.0 (total_now -. total_then) in
        let burn_rate =
          if total <= 0.0 then 0.0 else bad /. total /. o.budget
        in
        {
          window = w.label;
          window_s = w.seconds;
          span_s = now -. baseline.time;
          bad;
          total;
          burn_rate;
        })
      t.windows
  in
  let breached =
    windows <> [] && List.for_all (fun w -> w.burn_rate > 1.0) windows
  in
  let entries = Metrics.snapshot ~registry:t.registry () in
  {
    objective = o;
    current = current_value entries o.sli;
    cumulative_bad = bad_now;
    cumulative_total = total_now;
    windows;
    breached;
  }

let evaluate t =
  let newest = take_sample t in
  let samples =
    locked t (fun () ->
        t.samples <- retain t newest.time (newest :: t.samples);
        t.samples)
  in
  let evals =
    Array.to_list
      (Array.mapi
         (fun i o -> eval_objective t ~now:newest.time ~samples ~newest i o)
         t.objectives)
  in
  (* surface the verdicts: burn-rate gauges on the same registry and
     one "slo" ledger record per objective *)
  List.iter
    (fun ev ->
      List.iter
        (fun w ->
          Metrics.set
            (burn_gauge t ~objective:ev.objective.name ~window:w.window)
            w.burn_rate)
        ev.windows;
      Metrics.set
        (breached_gauge t ~objective:ev.objective.name)
        (if ev.breached then 1.0 else 0.0);
      Ledger.record ~kind:"slo"
        ~params:
          [
            ("objective", Json.String ev.objective.name);
            ("sli", Json.String (describe_sli ev.objective.sli));
            ("budget", Json.Float ev.objective.budget);
          ]
        ~outcome:(if ev.breached then "breach" else "ok")
        ~summary:
          ([
             ("current", Json.Float ev.current);
             ("bad", Json.Float ev.cumulative_bad);
             ("total", Json.Float ev.cumulative_total);
           ]
          @ List.map
              (fun w -> ("burn_" ^ w.window, Json.Float w.burn_rate))
              ev.windows)
        ~wall_seconds:0.0 ())
    evals;
  evals

let any_breached evals = List.exists (fun e -> e.breached) evals

(* ---- rendering ---- *)

let window_eval_json w =
  Json.Obj
    [
      ("window", Json.String w.window);
      ("window_s", Json.Float w.window_s);
      ("span_s", Json.Float w.span_s);
      ("bad", Json.Float w.bad);
      ("total", Json.Float w.total);
      ("burn_rate", Json.Float w.burn_rate);
    ]

let eval_json e =
  Json.Obj
    [
      ("objective", Json.String e.objective.name);
      ("sli", Json.String (describe_sli e.objective.sli));
      ("budget", Json.Float e.objective.budget);
      ("current", Json.Float e.current);
      ("bad", Json.Float e.cumulative_bad);
      ("total", Json.Float e.cumulative_total);
      ("windows", Json.List (List.map window_eval_json e.windows));
      ("breached", Json.Bool e.breached);
    ]

let to_json evals =
  Json.Obj
    [
      ("objectives", Json.List (List.map eval_json evals));
      ("breached", Json.Bool (any_breached evals));
    ]
