(* Trajectory probe for a single simulation run: records queue length
   (jobs in system), jobs in service and operative-server count into
   bounded Urs_obs.Timeline series, tagged with the replication id. The
   probe hooks the state-change sites of Server_farm — it consumes no
   randomness and schedules no events, so enabling it cannot perturb the
   simulated trajectory. Jobs in service is min(jobs, operative): an
   operative server never idles while work queues in this model.

   A probe has one writer (one replication on one domain), so samples
   wait in preallocated float buffers and reach the series a block at a
   time through [Timeline.record_block]: one lock per block instead of
   one per sample, and nothing allocated per state change. Every state
   change appends to the in-service buffer, so it fills first; the three
   series are handed over together whenever it does. *)

module Timeline = Urs_obs.Timeline

(* state changes per hand-over: the length of the in-service buffer *)
let block = 256

type buffer = {
  series : Timeline.series;
  ts : float array;
  vs : float array;
  mutable n : int;
}

type t = {
  b_jobs : buffer;
  b_service : buffer;
  b_ops : buffer;
  mutable jobs : int;
  mutable ops : int;
}

let buffer series =
  { series; ts = Array.make block 0.0; vs = Array.make block 0.0; n = 0 }

let create ?registry ?capacity ?horizon ?(meta = []) ?(labels = []) ~servers ()
    =
  let mk name = Timeline.series ?registry ?capacity ?horizon ~meta ~labels name in
  let p =
    {
      b_jobs = buffer (mk "urs_sim_jobs");
      b_service = buffer (mk "urs_sim_in_service");
      b_ops = buffer (mk "urs_sim_operative");
      jobs = 0;
      ops = servers;
    }
  in
  (* re-registering an existing (name, labels) returns the previous
     run's series: clear so live views are last-run-wins *)
  Timeline.clear p.b_jobs.series;
  Timeline.clear p.b_service.series;
  Timeline.clear p.b_ops.series;
  Timeline.record p.b_jobs.series ~t:0.0 0.0;
  Timeline.record p.b_service.series ~t:0.0 0.0;
  Timeline.record p.b_ops.series ~t:0.0 (float_of_int servers);
  p

let hand_over b =
  Timeline.record_block b.series b.ts b.vs b.n;
  b.n <- 0

let flush p =
  hand_over p.b_jobs;
  hand_over p.b_service;
  hand_over p.b_ops

let[@inline] push b t v =
  b.ts.(b.n) <- t;
  b.vs.(b.n) <- v;
  b.n <- b.n + 1

let[@inline] push_service p ~now =
  push p.b_service now (float_of_int (Int.min p.jobs p.ops));
  if p.b_service.n = block then flush p

let[@inline] set_jobs p ~now n =
  p.jobs <- n;
  push p.b_jobs now (float_of_int n);
  push_service p ~now

let[@inline] set_operative p ~now n =
  p.ops <- n;
  push p.b_ops now (float_of_int n);
  push_service p ~now

let finish p ~now =
  flush p;
  Timeline.finish p.b_jobs.series ~t:now;
  Timeline.finish p.b_service.series ~t:now;
  Timeline.finish p.b_ops.series ~t:now
