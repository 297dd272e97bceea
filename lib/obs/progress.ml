(* Live progress for long batch operations (sweeps, replication runs,
   doctor grids). A task is a named counter with an optional total;
   workers tick it from any domain, and the HTTP /progress endpoint (or
   `urs watch`) renders completion, rate and ETA. State is a small
   registry under one lock — ticks are rare (per point, not per event),
   so contention is irrelevant. *)

type task = {
  name : string;
  total : int option;
  mutable completed : int;
  mutable started_at : float;
  mutable finished_at : float option;
}

let lock = Mutex.create ()
let tasks : (string, task) Hashtbl.t = Hashtbl.create 8
let order : string list ref = ref [] (* registration order, newest last *)

let locked f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

let start ?total name =
  locked (fun () ->
      let t =
        {
          name;
          total;
          completed = 0;
          started_at = Span.now ();
          finished_at = None;
        }
      in
      (match Hashtbl.find_opt tasks name with
      | Some _ -> () (* restart in place, keep position *)
      | None -> order := !order @ [ name ]);
      Hashtbl.replace tasks name t)

let tick ?(by = 1) name =
  locked (fun () ->
      match Hashtbl.find_opt tasks name with
      | Some t -> t.completed <- t.completed + by
      | None -> ())

let finish name =
  locked (fun () ->
      match Hashtbl.find_opt tasks name with
      | Some t -> t.finished_at <- Some (Span.now ())
      | None -> ())

let reset () =
  locked (fun () ->
      Hashtbl.reset tasks;
      order := [])

type status = {
  p_name : string;
  p_total : int option;
  p_completed : int;
  p_elapsed_s : float;
  p_rate : float;  (* completed per second; 0 when nothing done yet *)
  p_eta_s : float option;  (* remaining / rate, when both are known *)
  p_finished : bool;
}

let status_of t ~now =
  let stop = match t.finished_at with Some f -> f | None -> now in
  let elapsed = Float.max 0.0 (stop -. t.started_at) in
  let rate =
    if elapsed > 0.0 && t.completed > 0 then float_of_int t.completed /. elapsed
    else 0.0
  in
  let eta =
    match t.total with
    | Some total when rate > 0.0 && t.finished_at = None ->
        Some (float_of_int (max 0 (total - t.completed)) /. rate)
    | _ -> None
  in
  {
    p_name = t.name;
    p_total = t.total;
    p_completed = t.completed;
    p_elapsed_s = elapsed;
    p_rate = rate;
    p_eta_s = eta;
    p_finished = t.finished_at <> None;
  }

let snapshot () =
  let now = Span.now () in
  locked (fun () ->
      List.filter_map
        (fun name ->
          Option.map (fun t -> status_of t ~now) (Hashtbl.find_opt tasks name))
        !order)

let status_json s =
  Json.Obj
    ([ ("task", Json.String s.p_name) ]
    @ (match s.p_total with Some t -> [ ("total", Json.Int t) ] | None -> [])
    @ [
        ("completed", Json.Int s.p_completed);
        ("elapsed_s", Json.Float s.p_elapsed_s);
        ("rate_per_s", Json.Float s.p_rate);
      ]
    @ (match s.p_eta_s with
      | Some e -> [ ("eta_s", Json.Float e) ]
      | None -> [])
    @ [ ("finished", Json.Bool s.p_finished) ])

let to_json () = Json.Obj [ ("tasks", Json.List (List.map status_json (snapshot ()))) ]
