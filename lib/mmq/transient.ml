type error = Too_large of { states : int; limit : int }

let pp_error ppf (Too_large { states; limit }) =
  Format.fprintf ppf "truncated chain has %d states (limit %d)" states limit

(* sparse row-major transition structure of the uniformized chain *)
type t = {
  qbd : Qbd.t;
  levels : int;
  n_states : int;
  q_rate : float; (* uniformization rate *)
  (* CSR-like storage of P = I + Q/q_rate *)
  row_start : int array;
  col : int array;
  weight : float array;
}

type state = { mode : int; jobs : int }

(* the state budget: the transient iteration is sparse and cheaper than
   Truncated's dense solve, so it is larger than Truncated's *)
let state_limit = 20_000

let create ?(levels = 200) q =
  let env = Qbd.env q in
  let s = Qbd.s q in
  let n_states = s * (levels + 1) in
  if n_states > state_limit then
    Error (Too_large { states = n_states; limit = state_limit })
  else begin
    let lambda = Qbd.lambda q and mu = Qbd.mu q in
    let a = Environment.transition_matrix env in
    let n_servers = Environment.servers env in
    let idx j i = (j * s) + i in
    (* collect transitions per state *)
    let transitions = Array.make n_states [] in
    let out_rate = Array.make n_states 0.0 in
    let add st dest rate =
      if rate > 0.0 then begin
        transitions.(st) <- (dest, rate) :: transitions.(st);
        out_rate.(st) <- out_rate.(st) +. rate
      end
    in
    for j = 0 to levels do
      for i = 0 to s - 1 do
        let st = idx j i in
        if j < levels then add st (idx (j + 1) i) lambda;
        let service =
          float_of_int
            (min (Environment.operative_servers env i) (min j n_servers))
          *. mu
        in
        if j > 0 then add st (idx (j - 1) i) service;
        for k = 0 to s - 1 do
          if k <> i then add st (idx j k) (Urs_linalg.Matrix.get a i k)
        done
      done
    done;
    let q_rate =
      1e-300 +. Array.fold_left Float.max 0.0 out_rate
    in
    (* build CSR with the diagonal self-loop of P *)
    let counts = Array.map (fun l -> List.length l + 1) transitions in
    let row_start = Array.make (n_states + 1) 0 in
    for st = 0 to n_states - 1 do
      row_start.(st + 1) <- row_start.(st) + counts.(st)
    done;
    let nnz = row_start.(n_states) in
    let col = Array.make nnz 0 and weight = Array.make nnz 0.0 in
    for st = 0 to n_states - 1 do
      let pos = ref row_start.(st) in
      col.(!pos) <- st;
      weight.(!pos) <- 1.0 -. (out_rate.(st) /. q_rate);
      incr pos;
      List.iter
        (fun (dest, rate) ->
          col.(!pos) <- dest;
          weight.(!pos) <- rate /. q_rate;
          incr pos)
        transitions.(st)
    done;
    Ok { qbd = q; levels; n_states; q_rate; row_start; col; weight }
  end

let check_initial t st =
  let s = Qbd.s t.qbd in
  if st.mode < 0 || st.mode >= s then
    raise (Invalid_argument "Transient: bad initial mode");
  if st.jobs < 0 || st.jobs > t.levels then
    raise (Invalid_argument "Transient: bad initial level")

let empty_all_operative t =
  let env = Qbd.env t.qbd in
  let s = Qbd.s t.qbd in
  let n = Environment.servers env in
  (* the most probable mode with all servers operative *)
  let best = ref (-1) and best_p = ref neg_infinity in
  for i = 0 to s - 1 do
    if Environment.operative_servers env i = n then begin
      let p = Environment.stationary_mode_probability env i in
      if p > !best_p then begin
        best_p := p;
        best := i
      end
    end
  done;
  { mode = !best; jobs = 0 }

(* π ← πP, using the CSR structure (row = source state) *)
let step t pi =
  let out = Array.make t.n_states 0.0 in
  for st = 0 to t.n_states - 1 do
    let p = pi.(st) in
    if p > 0.0 then
      for k = t.row_start.(st) to t.row_start.(st + 1) - 1 do
        out.(t.col.(k)) <- out.(t.col.(k)) +. (p *. t.weight.(k))
      done
  done;
  out

(* One uniformization pass for several times. The vectors
   v_n = π₀·Pⁿ are shared; each time keeps its own Poisson weight
   recurrence, accumulator and stopping rule, so its distribution is
   bit for bit the one a pass for that time alone gives. Time 0 is π₀
   and takes no part in the pass. *)
let distributions_at t ~initial ~times =
  check_initial t initial;
  if List.exists (fun time -> time < 0.0) times then
    invalid_arg "Transient: negative time";
  let s = Qbd.s t.qbd in
  let pi0 = Array.make t.n_states 0.0 in
  pi0.((initial.jobs * s) + initial.mode) <- 1.0;
  let times = Array.of_list times in
  let k = Array.length times in
  let lam = Array.map (fun time -> t.q_rate *. time) times in
  let accs =
    Array.map
      (fun time ->
        if time = 0.0 then Array.copy pi0 else Array.make t.n_states 0.0)
      times
  in
  let summed = List.filter (fun time -> time <> 0.0) (Array.to_list times) in
  (* truncation-depth telemetry: one sample per Poisson term, with the
     largest term weight still being summed as the residual figure; the
     loop state lives inside the tracked function, so no closure boxes
     it *)
  if summed <> [] then
    ignore
      (Urs_obs.Convergence.track ~solver:"uniformization"
         ~label:(fun () ->
           Printf.sprintf "transient t=%s states=%d"
             (String.concat "," (List.map (Printf.sprintf "%g") summed))
             t.n_states)
         ~callback:Fun.id
         ~converged:(fun n -> n <= 2_000_000)
         (fun observe ->
           let active = Array.map (fun time -> time <> 0.0) times in
           let live = ref (List.length summed) in
           let log_term = Array.map (fun l -> -.l) lam in
           let v = ref pi0 in
           let n = ref 0 in
           while !live > 0 do
             let top = ref 0.0 in
             for i = 0 to k - 1 do
               if active.(i) then begin
                 let w = exp log_term.(i) in
                 if w > 0.0 then begin
                   let acc = accs.(i) in
                   for st = 0 to t.n_states - 1 do
                     acc.(st) <- acc.(st) +. (w *. !v.(st))
                   done
                 end;
                 if not (!top >= w) then top := w;
                 (* the Poisson weights peak at n ≈ lam and then decay
                    super-geometrically; once past the peak and below
                    1e-16 the remaining tail is negligible (the weights
                    sum to 1) *)
                 if (float_of_int !n > lam.(i) && w < 1e-16) || !n > 2_000_000
                 then begin
                   active.(i) <- false;
                   decr live
                 end
                 else
                   log_term.(i) <-
                     log_term.(i) +. log (lam.(i) /. float_of_int (!n + 1))
               end
             done;
             (match observe with
             | None -> ()
             | Some obs -> obs ~iteration:(!n + 1) ~residual:!top ());
             if !live > 0 then begin
               incr n;
               v := step t !v
             end
           done;
           !n)
       : int);
  Array.to_list accs

let distribution_at t ~initial ~time =
  match distributions_at t ~initial ~times:[ time ] with
  | [ pi ] -> pi
  | _ -> assert false

let mean_jobs t pi =
  let s = Qbd.s t.qbd in
  let acc = ref 0.0 in
  for j = 1 to t.levels do
    for i = 0 to s - 1 do
      acc := !acc +. (float_of_int j *. pi.((j * s) + i))
    done
  done;
  !acc

let mean_jobs_at t ~initial ~time =
  mean_jobs t (distribution_at t ~initial ~time)

let mean_operative_at t ~initial ~time =
  let env = Qbd.env t.qbd in
  let s = Qbd.s t.qbd in
  let pi = distribution_at t ~initial ~time in
  let acc = ref 0.0 in
  for j = 0 to t.levels do
    for i = 0 to s - 1 do
      acc :=
        !acc
        +. (float_of_int (Environment.operative_servers env i)
           *. pi.((j * s) + i))
    done
  done;
  !acc

let relaxation_profile t ~initial ~times =
  List.map2
    (fun time pi -> (time, mean_jobs t pi))
    times
    (distributions_at t ~initial ~times)
