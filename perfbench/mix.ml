(* The serve workload's request mix. The mix is modelled, not observed:
   the soak sends only cache hits and the paper sweeps only unique
   models. About 9 requests in 10 repeat a warm paper-scenario model
   (N = 10) and hit the solve cache; the rest are unique paper models
   with N in 5..8 (s = 21..45 modes) that miss it. *)

module Json = Urs_obs.Json

let hot_lambdas = [| 7.0; 7.5; 8.0; 8.5 |]

let hot_body l = Printf.sprintf {|{"scenario":"paper","lambda":%s}|} (Json.float_str l)

let hot_bodies = Array.map hot_body hot_lambdas

let hit_share = 0.9

type kind = Hit | Miss | Scrape

(* [used] keeps misses unique across every phase of a run *)
let rec miss st used =
  let servers = 5 + Random.State.int st 4 in
  let lambda = Plan.lambda_at ~servers (Common.uniform st 0.5 0.9) in
  let strategy = if Random.State.bool st then "exact" else "approx" in
  let body =
    Printf.sprintf {|{"scenario":"paper","servers":%d,"lambda":%s,"strategy":"%s"}|}
      servers (Json.float_str lambda) strategy
  in
  if Hashtbl.mem used body then miss st used
  else begin
    Hashtbl.add used body ();
    body
  end

let draw st used =
  if Random.State.float st 1.0 < hit_share then
    (Hit, hot_bodies.(Random.State.int st (Array.length hot_bodies)))
  else (Miss, miss st used)

(* The open-loop schedule: Poisson arrivals of /solve requests at
   [rate] per second for [seconds], plus one GET /metrics scrape per
   second, as (offset in seconds, kind, body) in time order. *)
let schedule st used ~rate ~seconds =
  let rec arrivals t acc =
    let t = t -. (log (1.0 -. Random.State.float st 1.0) /. rate) in
    if t >= seconds then List.rev acc
    else
      let kind, body = draw st used in
      arrivals t ((t, kind, body) :: acc)
  in
  let scrapes = List.init (int_of_float seconds) (fun i -> (float (i + 1) -. 0.5, Scrape, "")) in
  let all = Array.of_list (arrivals 0.0 [] @ scrapes) in
  Array.stable_sort (fun (a, _, _) (b, _, _) -> compare a b) all;
  all
