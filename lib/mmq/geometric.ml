module V = Urs_linalg.Vec

type error =
  | Unstable of Stability.verdict
  | Root_not_found
  | Root_exhausted of { iterations : int; width : float; best : float }

let pp_error ppf = function
  | Unstable v ->
      Format.fprintf ppf "queue is unstable: %a" Stability.pp_verdict v
  | Root_not_found ->
      Format.fprintf ppf "no root of det Q(z) found inside (0, 1)"
  | Root_exhausted { iterations; width; best } ->
      Format.fprintf ppf
        "root refinement exhausted after %d iterations (bracket width %.2e, \
         best z=%.6f)"
        iterations width best

type t = { qbd : Qbd.t; z : float; weights : V.t }

(* sign-scan resolution for locating the dominant root in (0, 1) *)
let scan_points = 400

let solve q =
  let env = Qbd.env q in
  let verdict = Stability.check ~env ~lambda:(Qbd.lambda q) ~mu:(Qbd.mu q) in
  if not verdict.Stability.stable then Error (Unstable verdict)
  else begin
    (* one workspace serves every det Q(z) of the scan and the
       refinement, then the weight vector's null-vector solve *)
    let work = Urs_linalg.Lu.workspace (Qbd.s q) in
    let f z = Qbd.det_q_scaled q work z in
    (* per-iteration bracket telemetry of the Brent refinement; a scan
       that finds no root finishes its trace as not converged *)
    match
      Urs_obs.Convergence.track ~solver:"brent"
        ~label:(fun () ->
          Printf.sprintf "geometric N=%d s=%d" (Environment.servers env)
            (Qbd.s q))
        ~callback:(fun obs ~iteration ~width ~best ->
          obs ~iteration ~residual:width ~shift:best ())
        ~converged:Option.is_some
        (fun observe ->
          Urs_linalg.Rootfind.largest_root_in ~scan_points ?observe f 1e-9
            (1.0 -. 1e-9))
    with
    | exception Urs_linalg.Rootfind.Exhausted { iterations; width; best; _ } ->
        Error (Root_exhausted { iterations; width; best })
    | None -> Error Root_not_found
    | Some z ->
        Qbd.char_poly_real q z work;
        let u = Urs_linalg.Lu.left_null_vector work in
        let weights = V.scale (1.0 /. V.sum u) u in
        Ok { qbd = q; z; weights }
  end

let qbd t = t.qbd

let dominant_eigenvalue t = t.z

let mode_weights t = V.copy t.weights

let level_probability t j =
  if j < 0 then 0.0 else (1.0 -. t.z) *. (t.z ** float_of_int j)

let probability t ~mode ~jobs =
  if mode < 0 || mode >= V.dim t.weights then
    invalid_arg "Geometric.probability: bad mode";
  t.weights.(mode) *. level_probability t jobs

let tail_probability t j0 =
  if j0 <= 0 then 1.0 else t.z ** float_of_int j0

let queue_length_quantile t p =
  if p <= 0.0 || p >= 1.0 then
    invalid_arg "Geometric.queue_length_quantile: p in (0,1)";
  (* P(length <= j) = 1 - z^{j+1} >= p  ⇔  j >= ln(1-p)/ln z - 1 *)
  let j = int_of_float (ceil ((log (1.0 -. p) /. log t.z) -. 1.0)) in
  max 0 j

let mean_queue_length t = t.z /. (1.0 -. t.z)

let mean_response_time t = mean_queue_length t /. Qbd.lambda t.qbd
