(* File sink mechanics for the run ledger: size-based rotation with
   bounded retention, batched flushing, and the streaming line scan
   every reader goes through.

   This layer works on raw JSONL lines — it never parses a record — so
   [Ledger] (which owns record serialization and the process-wide lock)
   can depend on it without a cycle. Nothing here synchronizes: every
   writer-side call is made under the ledger mutex.

   Layout on disk, logrotate-style:

     ledger.jsonl          the active segment (appended to)
     ledger.jsonl.1        the most recently rotated segment
     ledger.jsonl.K        the oldest retained segment

   Rotation renames the active file to [.1] (shifting [.i] to [.i+1]
   and deleting [.keep] first), then reopens a fresh active segment —
   all plain [Sys.rename]/[Sys.remove], atomic per file on POSIX. A
   reader that races a rotation sees each line exactly once per segment
   file it opens; seq numbers make cross-segment order explicit. *)

(* ---- writer ---- *)

type t = {
  path : string;
  max_bytes : int option;
  keep : int;
  flush_every : int;
  mutable oc : out_channel;
  mutable bytes : int;  (* size of the active segment *)
  mutable unflushed : int;
}

let open_channel ~truncate path =
  let flags =
    Open_wronly :: Open_creat :: Open_binary
    :: (if truncate then [ Open_trunc ] else [ Open_append ])
  in
  open_out_gen flags 0o644 path

let open_ ?(truncate = false) ?max_bytes ?(keep = 3) ?(flush_every = 1) path =
  let oc = open_channel ~truncate path in
  {
    path;
    max_bytes;
    keep = max 1 keep;
    flush_every = max 1 flush_every;
    oc;
    bytes = out_channel_length oc;
    unflushed = 0;
  }

let flush t =
  Stdlib.flush t.oc;
  t.unflushed <- 0

let shift_rotated path keep =
  let seg i = path ^ "." ^ string_of_int i in
  (try Sys.remove (seg keep) with Sys_error _ -> ());
  let rename src dst = if Sys.file_exists src then Sys.rename src dst in
  for i = keep - 1 downto 1 do
    rename (seg i) (seg (i + 1))
  done;
  rename path (seg 1)

let rotate t =
  (* flush before the rename so no buffered line can land in the wrong
     segment *)
  flush t;
  close_out_noerr t.oc;
  shift_rotated t.path t.keep;
  t.oc <- open_channel ~truncate:true t.path;
  t.bytes <- 0

let write t line =
  let len = String.length line + 1 in
  (match t.max_bytes with
  | Some m when t.bytes > 0 && t.bytes + len > m -> rotate t
  | _ -> ());
  output_string t.oc line;
  output_char t.oc '\n';
  t.bytes <- t.bytes + len;
  t.unflushed <- t.unflushed + 1;
  if t.unflushed >= t.flush_every then flush t

let close t =
  (try flush t with Sys_error _ -> ());
  close_out_noerr t.oc

(* ---- reading ---- *)

let segments path =
  let rotated = ref [] in
  let misses = ref 0 in
  let i = ref 1 in
  (* contiguous numbering in steady state; tolerate one gap left by a
     crash between the shift renames. The second miss ends the walk,
     so every retained segment is found whatever [keep] is. *)
  while !misses <= 1 do
    let p = path ^ "." ^ string_of_int !i in
    if Sys.file_exists p then rotated := p :: !rotated else incr misses;
    incr i
  done;
  !rotated @ (if Sys.file_exists path then [ path ] else [])

let fold_lines path ~init ~f =
  match open_in_bin path with
  | exception Sys_error msg -> Error msg
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let rec go acc =
            match input_line ic with
            | exception End_of_file -> acc
            | line -> go (f acc line)
          in
          Ok (go init))
