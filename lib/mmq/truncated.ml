module M = Urs_linalg.Matrix

type error =
  | Unstable of Stability.verdict
  | Too_large of { states : int; limit : int }
  | Numerical of string

let pp_error ppf = function
  | Unstable v ->
      Format.fprintf ppf "queue is unstable: %a" Stability.pp_verdict v
  | Too_large { states; limit } ->
      Format.fprintf ppf "truncated chain has %d states (limit %d)" states limit
  | Numerical msg -> Format.fprintf ppf "numerical failure: %s" msg

type t = {
  qbd : Qbd.t;
  levels : int;
  pi : float array; (* stationary probabilities, state = j*s + i *)
}

(* the dense solve's state budget *)
let state_limit = 4000

let solve ?(levels = 200) q =
  let env = Qbd.env q in
  let s = Qbd.s q in
  let verdict =
    Stability.check ~env ~lambda:(Qbd.lambda q) ~mu:(Qbd.mu q)
  in
  if not verdict.Stability.stable then Error (Unstable verdict)
  else begin
    let n_states = s * (levels + 1) in
    if n_states > state_limit then
      Error (Too_large { states = n_states; limit = state_limit })
    else begin
      let lambda = Qbd.lambda q and mu = Qbd.mu q in
      let a = Environment.transition_matrix env in
      let n_servers = Environment.servers env in
      let idx j i = (j * s) + i in
      (* build the transposed generator densely: column balance *)
      let g = M.create n_states n_states in
      let add_rate from_state to_state rate =
        if rate > 0.0 then begin
          M.update g to_state from_state (fun v -> v +. rate);
          M.update g from_state from_state (fun v -> v -. rate)
        end
      in
      for j = 0 to levels do
        for i = 0 to s - 1 do
          let st = idx j i in
          (* arrivals (dropped at the truncation boundary) *)
          if j < levels then add_rate st (idx (j + 1) i) lambda;
          (* departures *)
          let rate_service =
            float_of_int (min (Environment.operative_servers env i) (min j n_servers))
            *. mu
          in
          if j > 0 then add_rate st (idx (j - 1) i) rate_service;
          (* environment moves *)
          for k = 0 to s - 1 do
            if k <> i then add_rate st (idx j k) (M.get a i k)
          done
        done
      done;
      (* replace the last balance row with the normalization Σπ = 1 *)
      for c = 0 to n_states - 1 do
        M.set g (n_states - 1) c 1.0
      done;
      let rhs = Array.make n_states 0.0 in
      rhs.(n_states - 1) <- 1.0;
      match Urs_linalg.Lu.solve_system g rhs with
      | Error `Singular -> Error (Numerical "singular truncated generator")
      | Ok pi ->
          if Array.exists (fun p -> p < -1e-8) pi then
            Error (Numerical "negative probability in truncated solve")
          else Ok { qbd = q; levels; pi = Array.map (Float.max 0.0) pi }
    end
  end

let levels t = t.levels

let probability t ~mode ~jobs =
  let s = Qbd.s t.qbd in
  if mode < 0 || mode >= s then invalid_arg "Truncated.probability: bad mode";
  if jobs < 0 || jobs > t.levels then 0.0 else t.pi.((jobs * s) + mode)

let level_probability t j =
  if j < 0 || j > t.levels then 0.0
  else begin
    let s = Qbd.s t.qbd in
    let acc = ref 0.0 in
    for i = 0 to s - 1 do
      acc := !acc +. t.pi.((j * s) + i)
    done;
    !acc
  end

let mean_queue_length t =
  let acc = ref 0.0 in
  for j = 1 to t.levels do
    acc := !acc +. (float_of_int j *. level_probability t j)
  done;
  !acc

let mean_response_time t = mean_queue_length t /. Qbd.lambda t.qbd

let truncation_mass t = level_probability t t.levels
