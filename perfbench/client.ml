(* The serve workload's client process. Two threads send an open-loop
   Poisson stream to a running urs serve, then run a closed loop with no
   think time. The server is its own process because threads of one
   OCaml domain interleave (see lib/obs/http.mli). Every 200 reply is
   checked against Solver.evaluate after the measured phases. *)

module Http = Urs_obs.Http
module Json = Urs_obs.Json
module Solver = Urs.Solver

type sample = {
  kind : Mix.kind;
  body : string;
  due : float;  (** scheduled send time; in the closed loop, the send time *)
  mutable sent : float;
  mutable finished : float;
  mutable free : bool;  (** the thread waited for [due] before sending *)
  mutable status : int;  (** 0 when the request never got a reply *)
  mutable reply : string;
  mutable ok : bool;
}

let sample kind body due =
  { kind; body; due; sent = due; finished = due; free = false; status = 0; reply = ""; ok = false }

let perform ~port s =
  s.sent <- Common.now ();
  let r =
    match s.kind with
    | Mix.Scrape -> Http.request ~port "/metrics"
    | Hit | Miss -> Http.request ~port ~meth:"POST" ~body:s.body "/solve"
  in
  s.finished <- Common.now ();
  match r with
  | Ok (status, _, reply) ->
      s.status <- status;
      s.ok <- status >= 200 && status < 300;
      if s.kind <> Scrape then s.reply <- reply
  | Error _ -> ()

let threads = 2

let on_threads f =
  List.iter Thread.join (List.init threads (fun _ -> Thread.create f ()))

let open_loop ~port sched =
  let t0 = Common.now () +. 0.05 in
  let samples = Array.map (fun (at, kind, body) -> sample kind body (t0 +. at)) sched in
  let next = ref 0 and lock = Mutex.create () in
  on_threads (fun () ->
      let rec loop () =
        Mutex.lock lock;
        let i = !next in
        incr next;
        Mutex.unlock lock;
        if i < Array.length samples then begin
          let s = samples.(i) in
          let wait = s.due -. Common.now () in
          if wait > 0.0 then begin
            s.free <- true;
            Thread.delay wait
          end;
          perform ~port s;
          loop ()
        end
      in
      loop ());
  samples

let closed_loop ~port st used ~seconds =
  let lock = Mutex.create () and out = ref [] in
  let stop = Common.now () +. seconds in
  on_threads (fun () ->
      let rec loop () =
        if Common.now () < stop then begin
          Mutex.lock lock;
          let kind, body = Mix.draw st used in
          Mutex.unlock lock;
          let s = sample kind body (Common.now ()) in
          perform ~port s;
          Mutex.lock lock;
          out := s :: !out;
          Mutex.unlock lock;
          loop ()
        end
      in
      loop ());
  Array.of_list (List.rev !out)

let performance json =
  let p = Option.bind (Result.to_option (Json.of_string json)) (Json.member "performance") in
  List.map
    (fun k -> Option.bind (Option.bind p (Json.member k)) Json.to_float_opt)
    [ "mean_jobs"; "mean_response"; "utilization"; "dominant_eigenvalue" ]

let cache_hit json =
  match Option.bind (Result.to_option (Json.of_string json)) (Json.member "cache") with
  | Some c -> Json.member "hit" c = Some (Json.Bool true)
  | None -> false

(* what Solver.evaluate says for the model in [body], in the reply's terms *)
let expected body =
  match Urs.Solve_service.parse_request body with
  | Error _ -> []
  | Ok (model, strategy) -> (
      match Solver.evaluate ~strategy model with
      | Error _ -> []
      | Ok p ->
          [
            Some p.Solver.mean_jobs;
            Some p.Solver.mean_response;
            Some p.Solver.utilization;
            p.Solver.dominant_eigenvalue;
          ])

(* untimed: a 200 reply that differs from Solver.evaluate is a failure *)
let verify samples =
  let memo = Hashtbl.create 1024 in
  Array.iter
    (fun s ->
      if s.ok && s.kind <> Mix.Scrape then begin
        let want =
          match Hashtbl.find_opt memo s.body with
          | Some w -> w
          | None ->
              let w = expected s.body in
              Hashtbl.add memo s.body w;
              w
        in
        s.ok <- want <> [] && performance s.reply = want
      end)
    samples

let kind_code = function Mix.Hit -> "hit" | Miss -> "miss" | Scrape -> "scrape"
let ms x = Json.Float (x *. 1000.0)

let run ~port ~pid ~seed ~open_s ~closed_s ~rate =
  let st = Common.rng ~seed "serve" and used = Hashtbl.create 1024 in
  let sched = Mix.schedule st used ~rate ~seconds:open_s in
  let opened = open_loop ~port sched in
  let cpu0 = Common.cpu_seconds pid in
  let c0 = Common.now () in
  let closed = closed_loop ~port st used ~seconds:closed_s in
  let closed_elapsed = Common.now () -. c0 in
  let cpu1 = Common.cpu_seconds pid in
  let rss = Common.peak_rss_mib ~pid:(string_of_int pid) () in
  let all = Array.append opened closed in
  let replies = List.filter (fun s -> s.ok && s.kind <> Mix.Scrape) (Array.to_list all) in
  let hits = List.length (List.filter (fun s -> cache_hit s.reply) replies) in
  verify all;
  let failed = Array.fold_left (fun n s -> if s.ok then n else n + 1) 0 all in
  let problems =
    List.filter_map
      (fun s ->
        if s.ok then None
        else Some (Json.String (Printf.sprintf "%s %d %s" (kind_code s.kind) s.status s.body)))
      (Array.to_list all)
  in
  Common.emit
    [
      ( "open",
        Json.List
          (Array.to_list
             (Array.map
                (fun s ->
                  Json.List
                    [
                      Json.String (kind_code s.kind);
                      ms (s.finished -. s.due);
                      ms (s.finished -. s.sent);
                      ms (s.sent -. s.due);
                      Json.Bool s.free;
                      Json.Bool s.ok;
                    ])
                opened)) );
      ( "closed",
        Json.List
          (Array.to_list
             (Array.map
                (fun s ->
                  Json.List
                    [
                      Json.String (kind_code s.kind);
                      ms (s.finished -. s.sent);
                      Json.Float (s.finished -. c0);
                      Json.Bool s.ok;
                    ])
                closed)) );
      ("closed_s", Json.Float closed_elapsed);
      ( "server_cpu_s",
        match (cpu0, cpu1) with Some a, Some b -> Json.Float (b -. a) | _ -> Json.Null );
      ("server_rss_mb", match rss with Some r -> Json.Float r | None -> Json.Null);
      ("lookups", Json.Int (List.length replies));
      ("hits", Json.Int hits);
      ("attempted", Json.Int (Array.length all));
      ("failed", Json.Int failed);
      ("problems", Json.List (List.filteri (fun i _ -> i < 10) problems));
    ]
