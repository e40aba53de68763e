(** Result of one experiment run, with printers for the bench tables. *)

type instance_stats = {
  instance : int;
  i_throughput : float;  (** committed txns / s, post-warmup *)
  i_avg_latency : float;  (** seconds *)
  i_p50_latency : float;
  i_p99_latency : float;
  i_txns : int;
  i_view_changes : int;
  i_retained_slots : int;  (** slot-log entries alive after checkpoint GC *)
  i_replied_retained : int;
      (** duplicate-reply cache entries retained for this instance after
          checkpoint-driven eviction (replica 0) *)
  i_rolled_back_rounds : int;
      (** speculative rounds unwound on this instance's view changes
          (replica 0); 0 in fault-free runs *)
  i_rolled_back_txns : int;  (** executed txns those rounds had applied *)
}
(** One protocol instance's share of the run (z rows for RCC modes). *)

type open_loop = {
  offered_rate : float;  (** configured arrival rate, txn/s *)
  offered_txns : int;  (** txns the arrival process tried to inject *)
  injected_txns : int;
  dropped_txns : int;  (** shed at the in-flight cap / all clients busy *)
  queue_p50 : float;  (** in-flight request depth, sampled per arrival *)
  queue_p99 : float;
  max_depth : int;
}
(** Offered vs. completed load for open-loop runs. *)

type t = {
  protocol : string;
  n : int;
  batch_size : int;
  throughput : float;  (** committed client txns / s, post-warmup *)
  avg_latency : float;  (** seconds *)
  p50_latency : float;
  p99_latency : float;
  committed_txns : int;
  timeline : (float * float) array;  (** client throughput per 100 ms *)
  exec_timeline : (float * float) array;  (** affected replica, fig. 12 *)
  view_changes : int;
  collusions_detected : int;
  contract_bytes : int;
  replacements : int;
  messages : int;
  bytes_sent : int;
  ledger_rounds : int;
  ledger_valid : bool;
  exec_utilization : float;  (** replica 0's execute thread busy fraction *)
  exec_pool_utilization : float;
      (** replica 0's execute-pool mean busy fraction; 0 in serial mode *)
  worker_utilization : float;  (** replica 0's instance-0 worker busy fraction *)
  sim_events : int;
  wall_seconds : float;
  snap_installs : int;  (** snapshots installed, summed over replicas *)
  snap_rejects : int;  (** snapshot fetches rejected (bad blob / timeout) *)
  snap_rounds_skipped : int;  (** consensus rounds covered by installs *)
  snap_bytes_in : int;  (** snapshot payload bytes received *)
  snap_bytes_out : int;  (** snapshot payload bytes served *)
  jrn_appends : int;  (** journal records appended (all replicas) *)
  jrn_flushes : int;  (** group-commit flushes (modeled fsyncs) *)
  jrn_bytes : int;  (** journal bytes flushed to disk *)
  jrn_snapshots : int;  (** durable checkpoint snapshots written *)
  jrn_faults : int;  (** storage faults injected across all disks *)
  jrn_restarts : int;  (** restart-from-disk recoveries performed *)
  jrn_replayed_rounds : int;  (** rounds re-executed from the journal *)
  jrn_replayed_txns : int;
  open_loop : open_loop option;  (** [None] for closed-loop runs *)
  per_instance : instance_stats array;
      (** per-instance breakdown; printed by {!pp} when longer than 1 *)
}

val pp : Format.formatter -> t -> unit
