(** Ergodicity of the unreliable multi-server queue (paper, eq. (11)):
    the queue is stable iff the offered load [λ/µ] is less than the
    steady-state average number of operative servers [N·η/(ξ+η)]. The
    condition depends only on the {e means} of the operative and
    inoperative periods, not on their distributions. *)

type verdict = {
  offered_load : float;  (** λ/µ. *)
  effective_capacity : float;  (** Average number of operative servers. *)
  utilization : float;  (** Offered load / effective capacity. *)
  stable : bool;
}

val check : env:Environment.t -> lambda:float -> mu:float -> verdict

val margin : verdict -> float
(** [1 - utilization]: how far from saturation the model sits. Negative
    for unstable models; the health diagnostics degrade verdicts whose
    margin is positive but tiny, where the spectral solve becomes
    ill-conditioned (dominant eigenvalue approaching 1). *)

val max_arrival_rate : env:Environment.t -> mu:float -> float
(** The supremum of stable arrival rates, [µ · N · availability]. *)

val pp_verdict : Format.formatter -> verdict -> unit
