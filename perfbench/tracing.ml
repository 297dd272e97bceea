(* The benchmark's own spans. They use the program's span recorder, so
   with tracing on the program's existing spans (urs_solver_evaluate,
   urs_spectral_stage, urs_replicate, urs_sim_replication, ...) nest
   under them. Spans stay in memory until [harvest]. *)

module Json = Urs_obs.Json
module Span = Urs_obs.Span

let span name f = Span.with_ ~name:("perfbench_" ^ name) f

type layer = { mutable calls : int; mutable total_s : float; mutable self_s : float }

(* spans are keyed by name, plus the stage label of solver stages *)
let key node =
  let name =
    Option.value ~default:"?" (Option.bind (Json.member "name" node) Json.to_string_opt)
  in
  match Option.bind (Json.member "labels" node) (Json.member "stage") with
  | Some (Json.String stage) -> Printf.sprintf "%s{%s}" name stage
  | _ -> name

let duration node =
  Option.value ~default:0.0
    (Option.bind (Json.member "duration_s" node) Json.to_float_opt)

let children node =
  match Json.member "children" node with Some (Json.List l) -> l | _ -> []

(* self time: a span's duration minus the time its children cover *)
let rec fold layers node =
  let kids = children node in
  let d = duration node in
  let covered = List.fold_left (fun acc c -> acc +. duration c) 0.0 kids in
  let k = key node in
  let l =
    match Hashtbl.find_opt layers k with
    | Some l -> l
    | None ->
        let l = { calls = 0; total_s = 0.0; self_s = 0.0 } in
        Hashtbl.add layers k l;
        l
  in
  l.calls <- l.calls + 1;
  l.total_s <- l.total_s +. d;
  l.self_s <- l.self_s +. Float.max 0.0 (d -. covered);
  List.iter (fold layers) kids

let layers : (string, layer) Hashtbl.t = Hashtbl.create 32
let written = ref []

(* Folds the spans recorded since the last harvest, adds them to
   [layers], keeps their JSON for [write] and clears the recorder.
   Returns this harvest's own totals. *)
let harvest () =
  let doc = Span.trace_json () in
  let fresh = Hashtbl.create 16 in
  (match Json.of_string doc with
  | Ok j -> (
      match Json.member "spans" j with
      | Some (Json.List roots) -> List.iter (fold fresh) roots
      | _ -> ())
  | Error _ -> ());
  Hashtbl.iter
    (fun k l ->
      match Hashtbl.find_opt layers k with
      | Some g ->
          g.calls <- g.calls + l.calls;
          g.total_s <- g.total_s +. l.total_s;
          g.self_s <- g.self_s +. l.self_s
      | None -> Hashtbl.add layers k { l with calls = l.calls })
    fresh;
  written := doc :: !written;
  Span.reset_trace ();
  fresh

let total tbl name = match Hashtbl.find_opt tbl name with Some l -> l.total_s | None -> 0.0

let self_times () =
  Json.List
    (Hashtbl.fold
       (fun name l acc ->
         Json.Obj
           [
             ("name", Json.String name);
             ("calls", Json.Int l.calls);
             ("total_s", Json.Float l.total_s);
             ("self_s", Json.Float l.self_s);
           ]
         :: acc)
       layers [])

(* the recorded span trees, one document per harvest, as a JSON list *)
let write path =
  let oc = open_out path in
  output_string oc "[";
  output_string oc (String.concat ",\n" (List.rev !written));
  output_string oc "]\n";
  close_out oc
