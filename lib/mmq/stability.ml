type verdict = {
  offered_load : float;
  effective_capacity : float;
  utilization : float;
  stable : bool;
}

let margin v = 1.0 -. v.utilization

let check ~env ~lambda ~mu =
  if lambda <= 0.0 || mu <= 0.0 then
    invalid_arg "Stability.check: lambda and mu must be positive";
  let offered_load = lambda /. mu in
  let effective_capacity = Environment.mean_operative_servers env in
  {
    offered_load;
    effective_capacity;
    utilization = offered_load /. effective_capacity;
    stable = offered_load < effective_capacity;
  }

let max_arrival_rate ~env ~mu = mu *. Environment.mean_operative_servers env

let pp_verdict ppf v =
  Format.fprintf ppf "load=%.4f capacity=%.4f utilization=%.4f (%s)"
    v.offered_load v.effective_capacity v.utilization
    (if v.stable then "stable" else "UNSTABLE")
