(* Bounded per-series time-series recorders. A series integrates a
   piecewise-constant signal (queue length, operative servers, pool
   queue depth) into a fixed number of equal-width buckets; when a
   sample lands past the covered range, adjacent buckets merge pairwise
   and the bucket width doubles, so memory stays O(capacity) however
   long the run is. Aggregation keeps enough per bucket (covered time,
   integral, sample count/sum, min, max) that merging is exact: the
   downsampled series is what direct recording at the coarser width
   would have produced, which makes re-downsampling idempotent and the
   contents deterministic for a given sample sequence — identical at
   any pool width. *)

type labels = (string * string) list

(* A series' float state lives in its own all-float record, the idiom
   of [Urs_sim.Collector.acc]: OCaml stores all-float records flat, so
   the per-sample stores write raw floats instead of boxing into the
   mixed [series] record. *)
type clock = {
  mutable t0 : float; (* nan until the first sample fixes the origin *)
  mutable initial_width : float; (* horizon-derived; nan = 1.0 default *)
  mutable width : float;
  mutable last_t : float; (* most recent sample, when [has_last] *)
  mutable last_v : float;
}

type series = {
  name : string;
  labels : labels;
  capacity : int;
  lock : Mutex.t; (* guards everything below: single writer in the hot
                     paths, but snapshots come from the HTTP thread *)
  mutable meta : labels; (* informational only, not part of the key *)
  c : clock;
  mutable has_last : bool;
  mutable last_i : int; (* bucket of [c.last_t]; -1 = unknown (a merge) *)
  mutable used : int; (* highest touched bucket index + 1 *)
  time_cov : float array; (* covered duration per bucket *)
  area : float array; (* integral of the signal over the bucket *)
  count : int array; (* raw samples that landed in the bucket *)
  sum_v : float array; (* their sum: mean fallback for zero measure *)
  vmin : float array;
  vmax : float array;
}

type t = { tbl : (string * labels, series) Hashtbl.t; lock : Mutex.t }

let create () = { tbl = Hashtbl.create 32; lock = Mutex.create () }

let default = create ()

let canon labels = List.sort (fun (a, _) (b, _) -> compare a b) labels

let locked lock f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

let default_capacity = 256

let clear_unlocked s =
  s.c.t0 <- nan;
  s.c.width <- s.c.initial_width;
  s.c.last_t <- nan;
  s.c.last_v <- nan;
  s.has_last <- false;
  s.last_i <- -1;
  s.used <- 0;
  Array.fill s.time_cov 0 s.capacity 0.0;
  Array.fill s.area 0 s.capacity 0.0;
  Array.fill s.count 0 s.capacity 0;
  Array.fill s.sum_v 0 s.capacity 0.0;
  Array.fill s.vmin 0 s.capacity infinity;
  Array.fill s.vmax 0 s.capacity neg_infinity

let clear (s : series) = locked s.lock (fun () -> clear_unlocked s)

let series ?(registry = default) ?(capacity = default_capacity) ?horizon
    ?(meta = []) ?(labels = []) name =
  if capacity < 2 then invalid_arg "Timeline.series: capacity must be >= 2";
  if not (Metrics.is_valid_name name) then
    invalid_arg (Printf.sprintf "Timeline.series: invalid name %S" name);
  let labels = canon labels in
  let key = (name, labels) in
  locked registry.lock (fun () ->
      let initial_width =
        match horizon with
        | Some h when h > 0.0 -> h /. float_of_int capacity
        | _ -> nan
      in
      match Hashtbl.find_opt registry.tbl key with
      | Some s ->
          locked s.lock (fun () ->
              if meta <> [] then s.meta <- canon meta;
              (* a new horizon takes effect at the next [clear] — the
                 buckets already recorded keep their layout *)
              if not (Float.is_nan initial_width) then
                s.c.initial_width <- initial_width);
          s
      | None ->
          let s =
            {
              name;
              labels;
              capacity;
              lock = Mutex.create ();
              meta = canon meta;
              c =
                {
                  t0 = nan;
                  initial_width;
                  width = nan;
                  last_t = nan;
                  last_v = nan;
                };
              has_last = false;
              last_i = -1;
              used = 0;
              time_cov = Array.make capacity 0.0;
              area = Array.make capacity 0.0;
              count = Array.make capacity 0;
              sum_v = Array.make capacity 0.0;
              vmin = Array.make capacity infinity;
              vmax = Array.make capacity neg_infinity;
            }
          in
          (* the horizon hint fixes the initial bucket width so that
             runs of the expected length never merge — and, more
             importantly, so every replication of a batch shares one
             bucket layout; [clear] restores it *)
          clear_unlocked s;
          Hashtbl.add registry.tbl key s;
          s)

(* [Float.min]/[Float.max] with the common strict cases compared first:
   the same results, but the stdlib functions test sign bits through a
   C call whenever their first argument wins *)
let[@inline] fmin a b = if a < b then a else if b < a then b else Float.min a b
let[@inline] fmax a b = if a > b then a else if b > a then b else Float.max a b

(* merge bucket pairs in place: (2i, 2i+1) -> i; the width doubles *)
let grow s =
  let half = (s.used + 1) / 2 in
  for i = 0 to half - 1 do
    let a = 2 * i and b = (2 * i) + 1 in
    let merge_from j =
      if j < s.capacity && j <> i then begin
        s.time_cov.(i) <- s.time_cov.(i) +. s.time_cov.(j);
        s.area.(i) <- s.area.(i) +. s.area.(j);
        s.count.(i) <- s.count.(i) + s.count.(j);
        s.sum_v.(i) <- s.sum_v.(i) +. s.sum_v.(j);
        s.vmin.(i) <- Float.min s.vmin.(i) s.vmin.(j);
        s.vmax.(i) <- Float.max s.vmax.(i) s.vmax.(j)
      end
    in
    if a <> i then begin
      s.time_cov.(i) <- s.time_cov.(a);
      s.area.(i) <- s.area.(a);
      s.count.(i) <- s.count.(a);
      s.sum_v.(i) <- s.sum_v.(a);
      s.vmin.(i) <- s.vmin.(a);
      s.vmax.(i) <- s.vmax.(a)
    end;
    merge_from b
  done;
  for i = half to s.used - 1 do
    s.time_cov.(i) <- 0.0;
    s.area.(i) <- 0.0;
    s.count.(i) <- 0;
    s.sum_v.(i) <- 0.0;
    s.vmin.(i) <- infinity;
    s.vmax.(i) <- neg_infinity
  done;
  s.used <- half;
  s.c.width <- s.c.width *. 2.0;
  s.last_i <- -1

let[@inline] touch s i v =
  if v < s.vmin.(i) then s.vmin.(i) <- v;
  if v > s.vmax.(i) then s.vmax.(i) <- v;
  if i + 1 > s.used then s.used <- i + 1

(* bucket index of time t, growing until it fits. Buckets are
   half-open, except that a time exactly on the final boundary (a run
   that ends exactly at the horizon hint) closes into the last bucket
   instead of forcing a merge of everything into the lower half. The
   functions from here to [sample] are inlined into it, so their float
   arguments stay unboxed. *)
let[@inline] index_for s t =
  let c = s.c in
  let i = ref (int_of_float ((t -. c.t0) /. c.width)) in
  while
    !i >= s.capacity && not (t -. c.t0 <= float_of_int s.capacity *. c.width)
  do
    grow s;
    i := int_of_float ((t -. c.t0) /. c.width)
  done;
  if !i >= s.capacity then s.capacity - 1 else if !i < 0 then 0 else !i

(* integrate the held value [v] over [lo, hi] (hi > lo, lo the last
   sample's time) into the buckets and return the bucket of [hi]. [hi]
   must be indexed first: it can trigger a merge, which would leave an
   index computed from the old width pointing at the wrong bucket — the
   merge invalidates [last_i], the cached bucket of [lo]. *)
let[@inline] integrate s ~lo ~hi v =
  let c = s.c in
  let i1 = index_for s hi in
  let i0 = if s.last_i >= 0 then s.last_i else index_for s lo in
  for i = i0 to i1 do
    let b_lo = c.t0 +. (float_of_int i *. c.width) in
    let b_hi = b_lo +. c.width in
    let ov = fmin hi b_hi -. fmax lo b_lo in
    if ov > 0.0 then begin
      s.time_cov.(i) <- s.time_cov.(i) +. ov;
      s.area.(i) <- s.area.(i) +. (ov *. v);
      touch s i v
    end
  done;
  i1

(* the per-sample body shared by [record] and [record_block]; the
   caller holds the lock *)
let[@inline] sample s t v =
  if Float.is_finite t && Float.is_finite v then begin
    let c = s.c in
    if Float.is_nan c.t0 then c.t0 <- t;
    if Float.is_nan c.width then c.width <- 1.0;
    (* time is expected to be monotone per series; a stale clock is
       clamped forward rather than corrupting earlier buckets *)
    let t = fmax t c.t0 in
    (* a sample past the last one lands where [integrate] indexed [hi];
       one at or before it lands in the last sample's bucket *)
    let i =
      if not s.has_last then index_for s t
      else if t > c.last_t then integrate s ~lo:c.last_t ~hi:t c.last_v
      else if s.last_i >= 0 then s.last_i
      else index_for s c.last_t
    in
    let t = if s.has_last then fmax t c.last_t else t in
    s.count.(i) <- s.count.(i) + 1;
    s.sum_v.(i) <- s.sum_v.(i) +. v;
    touch s i v;
    c.last_t <- t;
    c.last_v <- v;
    s.has_last <- true;
    s.last_i <- i
  end

(* the recording entries lock and unlock around [sample] by hand, with
   no [locked] closure to allocate; this handler keeps its guarantee *)
let unlock_and_reraise (s : series) e =
  let bt = Printexc.get_raw_backtrace () in
  Mutex.unlock s.lock;
  Printexc.raise_with_backtrace e bt

let record (s : series) ~t v =
  Mutex.lock s.lock;
  match sample s t v with
  | () -> Mutex.unlock s.lock
  | exception e -> unlock_and_reraise s e

let record_block (s : series) ts vs n =
  if n < 0 || n > Array.length ts || n > Array.length vs then
    invalid_arg "Timeline.record_block: n outside the arrays";
  Mutex.lock s.lock;
  match
    for k = 0 to n - 1 do
      sample s (Array.unsafe_get ts k) (Array.unsafe_get vs k)
    done
  with
  | () -> Mutex.unlock s.lock
  | exception e -> unlock_and_reraise s e

let finish (s : series) ~t =
  locked s.lock (fun () ->
      let c = s.c in
      if s.has_last && Float.is_finite t && t > c.last_t then begin
        s.last_i <- integrate s ~lo:c.last_t ~hi:t c.last_v;
        c.last_t <- t
      end)

(* ---- snapshots ---- *)

type point = {
  index : int;
  t_lo : float;
  t_hi : float;
  count : int;
  time_cov : float;
  area : float;
  sum_v : float;
  vmin : float;
  vmax : float;
}

type snapshot = {
  s_name : string;
  s_labels : labels;
  s_meta : labels;
  t0 : float;
  width : float;
  points : point list;
}

let point_mean p =
  if p.time_cov > 0.0 then p.area /. p.time_cov
  else if p.count > 0 then p.sum_v /. float_of_int p.count
  else nan

let snapshot_series (s : series) =
  locked s.lock (fun () ->
      let points = ref [] in
      for i = s.used - 1 downto 0 do
        if s.count.(i) > 0 || s.time_cov.(i) > 0.0 then
          points :=
            {
              index = i;
              t_lo = s.c.t0 +. (float_of_int i *. s.c.width);
              t_hi = s.c.t0 +. (float_of_int (i + 1) *. s.c.width);
              count = s.count.(i);
              time_cov = s.time_cov.(i);
              area = s.area.(i);
              sum_v = s.sum_v.(i);
              vmin = s.vmin.(i);
              vmax = s.vmax.(i);
            }
            :: !points
      done;
      {
        s_name = s.name;
        s_labels = s.labels;
        s_meta = s.meta;
        t0 = s.c.t0;
        width = s.c.width;
        points = !points;
      })

let snapshot ?(registry = default) ?name () =
  let all =
    locked registry.lock (fun () ->
        Hashtbl.fold (fun _ s acc -> s :: acc) registry.tbl [])
  in
  let all =
    match name with
    | None -> all
    | Some n -> List.filter (fun s -> s.name = n) all
  in
  List.sort
    (fun a b ->
      match compare a.s_name b.s_name with
      | 0 -> compare a.s_labels b.s_labels
      | c -> c)
    (List.map snapshot_series all)

let reset ?(registry = default) () =
  let all =
    locked registry.lock (fun () ->
        Hashtbl.fold (fun _ s acc -> s :: acc) registry.tbl [])
  in
  List.iter clear all

(* merging [factor] adjacent buckets is the same algebra [grow] uses, so
   coarsening a snapshot commutes with recording at the coarser width:
   [coarsen ~factor:a] then [~factor:b] equals [coarsen ~factor:(a*b)] *)
let coarsen ~factor snap =
  if factor < 1 then invalid_arg "Timeline.coarsen: factor must be >= 1";
  if factor = 1 || Float.is_nan snap.t0 then snap
  else begin
    let tbl = Hashtbl.create 32 in
    let order = ref [] in
    List.iter
      (fun p ->
        let i = p.index / factor in
        match Hashtbl.find_opt tbl i with
        | None ->
            order := i :: !order;
            Hashtbl.add tbl i
              {
                p with
                index = i;
                t_lo = snap.t0 +. (float_of_int i *. snap.width *. float_of_int factor);
                t_hi =
                  snap.t0
                  +. (float_of_int (i + 1) *. snap.width *. float_of_int factor);
              }
        | Some q ->
            Hashtbl.replace tbl i
              {
                q with
                count = q.count + p.count;
                time_cov = q.time_cov +. p.time_cov;
                area = q.area +. p.area;
                sum_v = q.sum_v +. p.sum_v;
                vmin = Float.min q.vmin p.vmin;
                vmax = Float.max q.vmax p.vmax;
              })
      snap.points;
    let points =
      List.sort
        (fun a b -> compare a.index b.index)
        (List.map (Hashtbl.find tbl) (List.rev !order))
    in
    { snap with width = snap.width *. float_of_int factor; points }
  end

(* dense mean trajectory on the bucket grid (nan where nothing was
   recorded) — what the Welch warm-up analysis averages across
   replications, index-aligned because the replications share a horizon *)
let mean_array snap =
  match List.rev snap.points with
  | [] -> [||]
  | last :: _ ->
      let arr = Array.make (last.index + 1) nan in
      List.iter (fun p -> arr.(p.index) <- point_mean p) snap.points;
      arr

(* ---- JSON ---- *)

let point_json p =
  Json.Obj
    [
      ("t_lo", Json.Float p.t_lo);
      ("t_hi", Json.Float p.t_hi);
      ("count", Json.Int p.count);
      ("covered_s", Json.Float p.time_cov);
      ("mean", Json.Float (point_mean p));
      ("min", Json.Float p.vmin);
      ("max", Json.Float p.vmax);
    ]

let snapshot_json snap =
  let labels_obj l = Json.Obj (List.map (fun (k, v) -> (k, Json.String v)) l) in
  Json.Obj
    ([ ("name", Json.String snap.s_name) ]
    @ (if snap.s_labels = [] then []
       else [ ("labels", labels_obj snap.s_labels) ])
    @ (if snap.s_meta = [] then [] else [ ("meta", labels_obj snap.s_meta) ])
    @ [
        ("t0", Json.Float snap.t0);
        ("bucket_width", Json.Float snap.width);
        ("points", Json.List (List.map point_json snap.points));
      ])

let to_json ?registry ?name () =
  Json.Obj
    [ ("series", Json.List (List.map snapshot_json (snapshot ?registry ?name ()))) ]
