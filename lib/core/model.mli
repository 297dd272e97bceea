(** Top-level description of an unreliable multi-server system — the
    user-facing entry point of the library.

    A model is the quintuple of Figure 1: [N] parallel servers fed from
    one FCFS queue, Poisson arrivals at rate [λ], exponential service at
    rate [µ], and operative/inoperative period distributions. Build one
    with {!create}, then evaluate it with {!Solver.evaluate}, optimize
    it with {!Cost} or size it with {!Capacity}. *)

type t = {
  servers : int;
  arrival_rate : float;
  service_rate : float;
  operative : Urs_prob.Distribution.t;
  inoperative : Urs_prob.Distribution.t;
  repair_crews : int option;
      (** Repair-crew bound; [None] = unlimited (the paper's model). *)
}

val create :
  ?repair_crews:int ->
  servers:int ->
  arrival_rate:float ->
  service_rate:float ->
  operative:Urs_prob.Distribution.t ->
  inoperative:Urs_prob.Distribution.t ->
  unit ->
  t
(** Validated constructor; raises [Invalid_argument] on nonsensical
    parameters (stability is {e not} required here — check
    {!stability}). [repair_crews] bounds the number of simultaneously
    repairable servers (see {!Urs_mmq.Environment.create_ph}). *)

val with_servers : t -> int -> t
(** Same system with a different number of servers. *)

val with_arrival_rate : t -> float -> t

val with_operative : t -> Urs_prob.Distribution.t -> t
(** Same system, repair crews included, with other operative periods. *)

val with_inoperative : t -> Urs_prob.Distribution.t -> t
(** Same system, repair crews included, with other inoperative
    periods. *)

val paper_operative : Urs_prob.Distribution.t
(** The paper's fitted operative-period distribution:
    H2 with weights (0.7246, 0.2754) and rates (0.1663, 0.0091) —
    mean 34.62, C² = 4.59. *)

val paper_inoperative_h2 : Urs_prob.Distribution.t
(** The paper's fitted inoperative-period distribution:
    H2 with weights (0.9303, 0.0697) and rates (25.0043, 1.6346). *)

val paper_inoperative_exp : Urs_prob.Distribution.t
(** The simplified exponential inoperative distribution with rate
    η = 25 used throughout §4. *)

val is_phase_type : t -> bool
(** Whether both period distributions are phase-type (exponential,
    hyperexponential, Erlang or general PH), i.e. whether the exact
    analytical solvers apply. This generalizes the paper, whose model
    is the hyperexponential special case. *)

val environment : t -> Urs_mmq.Environment.t option
(** The Markovian environment, when {!is_phase_type}. *)

val qbd : t -> Urs_mmq.Qbd.t option
(** The QBD blocks, when {!is_phase_type}. *)

val stability : t -> Urs_mmq.Stability.verdict
val pp : Format.formatter -> t -> unit
