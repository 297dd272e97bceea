(* Plumbing shared by the workload processes: the stdout protocol they
   speak with run.py, the clock, seeded inputs and /proc readings. *)

module Json = Urs_obs.Json

let now = Unix.gettimeofday

(* run.py times set-up from spawning a process until it reads this
   line, so it is printed just before the first timed operation. A
   process started only to time set-up exits here. *)
let setup_only = ref false

let ready () =
  print_string "ready\n";
  flush stdout;
  if !setup_only then exit 0

(* the last line of every workload process: raw samples and check
   outcomes, which run.py turns into metrics *)
let emit fields =
  Json.to_channel stdout (Json.Obj fields);
  flush stdout

let floats xs = Json.List (List.map (fun x -> Json.Float x) xs)

(* a round's make-up: how many operations of each kind it runs *)
let counts kinds = Json.Obj (List.map (fun (k, n) -> (k, Json.Int n)) kinds)

(* inputs come from the workload seed alone; the tag keeps the streams
   of different workloads apart *)
let rng ~seed tag = Random.State.make [| seed; Hashtbl.hash tag |]

let uniform st lo hi = lo +. Random.State.float st (hi -. lo)

let shuffle st a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

(* VmHWM of /proc/<pid>/status, in MiB *)
let peak_rss_mib ?(pid = "self") () =
  match open_in (Printf.sprintf "/proc/%s/status" pid) with
  | exception Sys_error _ -> None
  | ic ->
      let rec find () =
        match input_line ic with
        | exception End_of_file -> None
        | line when String.starts_with ~prefix:"VmHWM:" line -> (
            match String.split_on_char ' ' (String.trim (String.sub line 6 (String.length line - 6))) with
            | kb :: _ -> Option.map (fun k -> k /. 1024.0) (float_of_string_opt kb)
            | [] -> None)
        | _ -> find ()
      in
      let v = find () in
      close_in ic;
      v

(* utime + stime of a process, in seconds (fields 14 and 15 of
   /proc/<pid>/stat, counted after the parenthesised command name) *)
let cpu_seconds pid =
  match open_in (Printf.sprintf "/proc/%d/stat" pid) with
  | exception Sys_error _ -> None
  | ic ->
      let line = input_line ic in
      close_in ic;
      let after = String.rindex line ')' + 2 in
      let fields =
        String.split_on_char ' '
          (String.sub line after (String.length line - after))
      in
      let tick = 100.0 (* USER_HZ on Linux *) in
      (match (List.nth_opt fields 11, List.nth_opt fields 12) with
      | Some u, Some s -> (
          match (float_of_string_opt u, float_of_string_opt s) with
          | Some u, Some s -> Some ((u +. s) /. tick)
          | _ -> None)
      | _ -> None)

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* command-line flags are "--name value" pairs *)
let flags argv =
  let rec go acc = function
    | k :: v :: rest when String.starts_with ~prefix:"--" k ->
        go ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | [] -> acc
    | k :: _ -> failwith ("perfbench: bad argument " ^ k)
  in
  go [] argv

let flag fl name ~default conv =
  match List.assoc_opt name fl with None -> default | Some v -> conv v
