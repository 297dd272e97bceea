module H = Urs_prob.Hyperexponential
module Ph = Urs_prob.Phase_type
module M = Urs_linalg.Matrix

type mode = { x : int array; y : int array }

(* one side (operative or inoperative) of the alternating renewal
   process, in phase-type form *)
type side = {
  alpha : float array; (* initial phase distribution (no defect) *)
  t_matrix : M.t; (* sub-generator *)
  exit_rates : float array; (* absorption rate per phase *)
  occupation : float array; (* α(−T)⁻¹: mean time per phase per period *)
  mean : float;
}

type t = {
  servers : int;
  repair_capacity : int; (* crews; = servers means unlimited (the paper) *)
  op : side;
  inop : side;
  op_ph : Ph.t;
  inop_ph : Ph.t;
  modes : mode array;
  index : (int array * int array, int) Hashtbl.t;
}

let side_of_ph name ph =
  let alpha = Ph.alpha ph in
  let mass = Array.fold_left ( +. ) 0.0 alpha in
  if abs_float (mass -. 1.0) > 1e-9 then
    invalid_arg
      (Printf.sprintf
         "Environment: %s phase-type law has an initial defect (zero-length \
          periods are not allowed)"
         name);
  let t_matrix = Ph.t_matrix ph in
  let k = Ph.phases ph in
  let exit_rates =
    Array.init k (fun i ->
        let row = ref 0.0 in
        for j = 0 to k - 1 do
          row := !row +. M.get t_matrix i j
        done;
        Float.max 0.0 (-. !row))
  in
  (* α(−T)⁻¹ : solve yᵀ(−T) = α  ⇔  (−T)ᵀ y = αᵀ *)
  let neg_t = M.scale (-1.0) t_matrix in
  let occupation =
    match Urs_linalg.Lu.factor neg_t with
    | Error `Singular -> invalid_arg "Environment: singular sub-generator"
    | Ok f -> Urs_linalg.Lu.solve_transposed f alpha
  in
  {
    alpha;
    t_matrix;
    exit_rates;
    occupation;
    mean = Urs_linalg.Vec.sum occupation;
  }

(* all compositions of [total] into [parts] nonnegative integers, in
   lexicographically descending order *)
let rec compositions total parts =
  if parts = 0 then if total = 0 then [ [] ] else []
  else
    List.concat_map
      (fun first ->
        List.map (fun rest -> first :: rest) (compositions (total - first) (parts - 1)))
      (List.init (total + 1) (fun i -> total - i))

let enumerate_modes n_servers n m =
  (* ascending operative count; within a count, descending lex on x then y *)
  List.concat_map
    (fun ops ->
      List.concat_map
        (fun x ->
          List.map
            (fun y -> { x = Array.of_list x; y = Array.of_list y })
            (compositions (n_servers - ops) m))
        (compositions ops n))
    (List.init (n_servers + 1) (fun i -> i))
  |> Array.of_list

let create_ph ?repair_crews ~servers ~operative ~inoperative () =
  if servers < 1 then invalid_arg "Environment.create: servers must be >= 1";
  let repair_capacity =
    match repair_crews with
    | None -> servers
    | Some c ->
        if c < 1 then invalid_arg "Environment.create: repair_crews must be >= 1";
        min c servers
  in
  let op = side_of_ph "operative" operative in
  let inop = side_of_ph "inoperative" inoperative in
  let n = Ph.phases operative and m = Ph.phases inoperative in
  let modes = enumerate_modes servers n m in
  let index = Hashtbl.create (Array.length modes) in
  Array.iteri (fun i md -> Hashtbl.replace index (md.x, md.y) i) modes;
  { servers; repair_capacity; op; inop; op_ph = operative;
    inop_ph = inoperative; modes; index }

let create ~servers ~operative ~inoperative =
  create_ph ~servers
    ~operative:(Ph.of_hyperexponential operative)
    ~inoperative:(Ph.of_hyperexponential inoperative)
    ()

let repair_capacity t = t.repair_capacity

let unlimited_repair t = t.repair_capacity >= t.servers

let servers t = t.servers

let operative t = t.op_ph

let inoperative t = t.inop_ph

let num_modes t = Array.length t.modes

let mode t i =
  if i < 0 || i >= num_modes t then invalid_arg "Environment.mode: bad index";
  let md = t.modes.(i) in
  { x = Array.copy md.x; y = Array.copy md.y }

let index_of_mode t md =
  match Hashtbl.find_opt t.index (md.x, md.y) with
  | Some i -> i
  | None -> raise Not_found

let operative_servers t i =
  if i < 0 || i >= num_modes t then
    invalid_arg "Environment.operative_servers: bad index";
  Array.fold_left ( + ) 0 t.modes.(i).x

let count_modes ~servers ~op_phases ~inop_phases =
  (* C(N + n + m - 1, n + m - 1) *)
  let k = op_phases + inop_phases - 1 in
  let n = servers + k in
  let acc = ref 1.0 in
  for i = 1 to k do
    acc := !acc *. float_of_int (n - k + i) /. float_of_int i
  done;
  int_of_float (Float.round !acc)

let transition_matrix t =
  let s = num_modes t in
  let n = Array.length t.op.alpha and m = Array.length t.inop.alpha in
  let a = M.create s s in
  let add i dest rate = if rate > 0.0 then M.update a i dest (fun v -> v +. rate) in
  for i = 0 to s - 1 do
    let md = t.modes.(i) in
    for j = 0 to n - 1 do
      if md.x.(j) > 0 then begin
        let xj = float_of_int md.x.(j) in
        (* within-operative phase changes (zero for hyperexponential) *)
        for j' = 0 to n - 1 do
          if j' <> j then begin
            let rate = xj *. M.get t.op.t_matrix j j' in
            if rate > 0.0 then begin
              let x' = Array.copy md.x in
              x'.(j) <- x'.(j) - 1;
              x'.(j') <- x'.(j') + 1;
              add i (Hashtbl.find t.index (x', md.y)) rate
            end
          end
        done;
        (* breakdowns: operative phase j -> inoperative phase k *)
        if t.op.exit_rates.(j) > 0.0 then
          for k = 0 to m - 1 do
            let rate = xj *. t.op.exit_rates.(j) *. t.inop.alpha.(k) in
            if rate > 0.0 then begin
              let x' = Array.copy md.x and y' = Array.copy md.y in
              x'.(j) <- x'.(j) - 1;
              y'.(k) <- y'.(k) + 1;
              add i (Hashtbl.find t.index (x', y')) rate
            end
          done
      end
    done;
    let y_total = Array.fold_left ( + ) 0 md.y in
    (* with c repair crews shared (processor-sharing) across the broken
       servers, every inoperative-side rate is scaled by min(y,c)/y;
       for exponential repairs this is exactly min(y,c)·η *)
    let crew_factor =
      if y_total = 0 then 1.0
      else
        float_of_int (min y_total t.repair_capacity) /. float_of_int y_total
    in
    for k = 0 to m - 1 do
      if md.y.(k) > 0 then begin
        let yk = crew_factor *. float_of_int md.y.(k) in
        (* within-inoperative phase changes *)
        for k' = 0 to m - 1 do
          if k' <> k then begin
            let rate = yk *. M.get t.inop.t_matrix k k' in
            if rate > 0.0 then begin
              let y' = Array.copy md.y in
              y'.(k) <- y'.(k) - 1;
              y'.(k') <- y'.(k') + 1;
              add i (Hashtbl.find t.index (md.x, y')) rate
            end
          end
        done;
        (* repairs: inoperative phase k -> operative phase j *)
        if t.inop.exit_rates.(k) > 0.0 then
          for j = 0 to n - 1 do
            let rate = yk *. t.inop.exit_rates.(k) *. t.op.alpha.(j) in
            if rate > 0.0 then begin
              let x' = Array.copy md.x and y' = Array.copy md.y in
              y'.(k) <- y'.(k) - 1;
              x'.(j) <- x'.(j) + 1;
              add i (Hashtbl.find t.index (x', y')) rate
            end
          done
      end
    done
  done;
  a

(* stationary distribution of the environment chain by direct solve of
   π(A − D^A) = 0 with normalization; needed when limited repair
   capacity couples the servers *)
let stationary_distribution_solved t =
  let s = num_modes t in
  let a = transition_matrix t in
  let g = M.create s s in
  (* gᵀ with the last balance equation replaced by normalization *)
  for i = 0 to s - 1 do
    let row_sum = ref 0.0 in
    for j = 0 to s - 1 do
      row_sum := !row_sum +. M.get a i j
    done;
    for j = 0 to s - 1 do
      if j < s - 1 then
        M.set g j i (if i = j then M.get a i j -. !row_sum else M.get a i j)
    done;
    M.set g (s - 1) i 1.0
  done;
  let rhs = Array.make s 0.0 in
  rhs.(s - 1) <- 1.0;
  match Urs_linalg.Lu.solve_system g rhs with
  | Ok pi -> Array.map (Float.max 0.0) pi
  | Error `Singular ->
      invalid_arg "Environment: singular environment generator"

let availability t =
  if unlimited_repair t then t.op.mean /. (t.op.mean +. t.inop.mean)
  else begin
    let pi = stationary_distribution_solved t in
    let acc = ref 0.0 in
    for i = 0 to num_modes t - 1 do
      acc := !acc +. (pi.(i) *. float_of_int (operative_servers t i))
    done;
    !acc /. float_of_int t.servers
  end

let mean_operative_servers t = float_of_int t.servers *. availability t

(* Per-server stationary phase probabilities: the chance of finding a
   given server in operative phase j at a random time is proportional to
   the mean occupation time of phase j per renewal cycle. *)
let phase_probabilities t =
  let cycle = t.op.mean +. t.inop.mean in
  let p_op = Array.map (fun occ -> occ /. cycle) t.op.occupation in
  let p_inop = Array.map (fun occ -> occ /. cycle) t.inop.occupation in
  (p_op, p_inop)

let log_factorial n =
  let acc = ref 0.0 in
  for i = 2 to n do
    acc := !acc +. log (float_of_int i)
  done;
  !acc

let stationary_mode_probability t i =
  if i < 0 || i >= num_modes t then
    invalid_arg "Environment.stationary_mode_probability: bad index";
  if not (unlimited_repair t) then (stationary_distribution_solved t).(i)
  else begin
  let md = t.modes.(i) in
  let p_op, p_inop = phase_probabilities t in
  (* multinomial: N! / (Π xⱼ! Π yₖ!) Π p^x Π p^y *)
  let log_p = ref (log_factorial t.servers) in
  Array.iteri
    (fun j c ->
      log_p := !log_p -. log_factorial c;
      if c > 0 then log_p := !log_p +. (float_of_int c *. log p_op.(j)))
    md.x;
  Array.iteri
    (fun k c ->
      log_p := !log_p -. log_factorial c;
      if c > 0 then log_p := !log_p +. (float_of_int c *. log p_inop.(k)))
    md.y;
  exp !log_p
  end
