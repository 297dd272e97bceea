module D = Urs_prob.Distribution

type t = {
  servers : int;
  arrival_rate : float;
  service_rate : float;
  operative : D.t;
  inoperative : D.t;
  repair_crews : int option;
}

let create ?repair_crews ~servers ~arrival_rate ~service_rate ~operative
    ~inoperative () =
  if servers < 1 then invalid_arg "Model.create: servers must be >= 1";
  if arrival_rate <= 0.0 then invalid_arg "Model.create: arrival_rate positive";
  if service_rate <= 0.0 then invalid_arg "Model.create: service_rate positive";
  (match repair_crews with
  | Some c when c < 1 -> invalid_arg "Model.create: repair_crews must be >= 1"
  | _ -> ());
  { servers; arrival_rate; service_rate; operative; inoperative; repair_crews }

let with_servers t n =
  create ?repair_crews:t.repair_crews ~servers:n ~arrival_rate:t.arrival_rate
    ~service_rate:t.service_rate ~operative:t.operative
    ~inoperative:t.inoperative ()

let with_arrival_rate t lambda =
  create ?repair_crews:t.repair_crews ~servers:t.servers ~arrival_rate:lambda
    ~service_rate:t.service_rate ~operative:t.operative
    ~inoperative:t.inoperative ()

let with_operative t operative = { t with operative }

let with_inoperative t inoperative = { t with inoperative }

let paper_operative =
  D.hyperexponential ~weights:[| 0.7246; 0.2754 |] ~rates:[| 0.1663; 0.0091 |]

let paper_inoperative_h2 =
  D.hyperexponential ~weights:[| 0.9303; 0.0697 |] ~rates:[| 25.0043; 1.6346 |]

let paper_inoperative_exp = D.exponential ~rate:25.0

let is_phase_type t =
  Option.is_some (D.as_phase_type t.operative)
  && Option.is_some (D.as_phase_type t.inoperative)

let environment t =
  match (D.as_phase_type t.operative, D.as_phase_type t.inoperative) with
  | Some op, Some inop ->
      Some
        (Urs_mmq.Environment.create_ph ?repair_crews:t.repair_crews
           ~servers:t.servers ~operative:op ~inoperative:inop ())
  | _ -> None

let qbd t =
  Option.map
    (fun env ->
      Urs_mmq.Qbd.create ~env ~lambda:t.arrival_rate ~mu:t.service_rate)
    (environment t)

let stability t =
  match environment t with
  | Some env ->
      Urs_mmq.Stability.check ~env ~lambda:t.arrival_rate ~mu:t.service_rate
  | None ->
      (* distribution-free: the condition depends only on the means.
         (Only valid with unlimited repair crews; a crews bound requires
         the phase-type environment, so reject the combination.) *)
      (match t.repair_crews with
      | Some c when c < t.servers ->
          invalid_arg
            "Model.stability: limited repair crews require phase-type periods"
      | _ -> ());
      let mean_op = D.mean t.operative and mean_inop = D.mean t.inoperative in
      let avail = mean_op /. (mean_op +. mean_inop) in
      let capacity = float_of_int t.servers *. avail in
      let offered = t.arrival_rate /. t.service_rate in
      {
        Urs_mmq.Stability.offered_load = offered;
        effective_capacity = capacity;
        utilization = offered /. capacity;
        stable = offered < capacity;
      }

let pp ppf t =
  Format.fprintf ppf
    "@[<v 2>model:@,N=%d λ=%g µ=%g@,operative: %a@,inoperative: %a@]"
    t.servers t.arrival_rate t.service_rate D.pp t.operative D.pp t.inoperative
