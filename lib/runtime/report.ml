(* One row of the per-instance breakdown: RCC behaviour under attack is
   per-instance (one straggling primary drags exactly one instance), so
   a run report carries each instance's own share of the load. *)
type instance_stats = {
  instance : int;
  i_throughput : float;
  i_avg_latency : float;
  i_p50_latency : float;
  i_p99_latency : float;
  i_txns : int;
  i_view_changes : int;
  i_retained_slots : int;
  i_live_words : int;
  i_replied_retained : int;
  i_rolled_back_rounds : int;
  i_rolled_back_txns : int;
}

(* Open-loop runs only: offered vs. completed load and backpressure.
   [None] for closed-loop runs, so their report text is unchanged. *)
type open_loop = {
  offered_rate : float;  (* configured arrival rate, txn/s *)
  offered_txns : int;  (* txns the arrival process tried to inject *)
  injected_txns : int;
  dropped_txns : int;  (* shed at the in-flight cap *)
  queue_p50 : float;  (* in-flight request depth, sampled per arrival *)
  queue_p99 : float;
  max_depth : int;
}

type t = {
  protocol : string;
  n : int;
  batch_size : int;
  throughput : float;
  avg_latency : float;
  p50_latency : float;
  p99_latency : float;
  committed_txns : int;
  timeline : (float * float) array;
  exec_timeline : (float * float) array;
  view_changes : int;
  collusions_detected : int;
  contract_bytes : int;
  replacements : int;
  messages : int;
  bytes_sent : int;
  ledger_rounds : int;
  ledger_valid : bool;
  exec_utilization : float;
  exec_pool_utilization : float;
  worker_utilization : float;
  sim_events : int;
  wall_seconds : float;
  snap_installs : int;
  snap_rejects : int;
  snap_rounds_skipped : int;
  snap_bytes_in : int;
  snap_bytes_out : int;
  jrn_appends : int;
  jrn_flushes : int;
  jrn_bytes : int;
  jrn_snapshots : int;
  jrn_faults : int;
  jrn_restarts : int;
  jrn_replayed_rounds : int;
  jrn_replayed_txns : int;
  open_loop : open_loop option;
  per_instance : instance_stats array;
      (* empty or length 1 when the run has a single logical instance *)
}

let pp_instance fmt s =
  Format.fprintf fmt
    "  instance %d: %.0f txn/s, lat avg %.2f ms (p50 %.2f, p99 %.2f), \
     txns=%d view_changes=%d slots=%d (~%d words) replied=%d"
    s.instance s.i_throughput
    (s.i_avg_latency *. 1e3)
    (s.i_p50_latency *. 1e3)
    (s.i_p99_latency *. 1e3)
    s.i_txns s.i_view_changes s.i_retained_slots s.i_live_words
    s.i_replied_retained;
  (* Fault-free runs never roll back; print the counters only when they
     fired so the baseline report layout is unchanged. *)
  if s.i_rolled_back_rounds > 0 then
    Format.fprintf fmt " rolled_back=%d rounds (%d txns)"
      s.i_rolled_back_rounds s.i_rolled_back_txns

let pp fmt t =
  Format.fprintf fmt
    "@[<v>%s n=%d batch=%d: %.0f txn/s, lat avg %.2f ms (p50 %.2f, p99 %.2f)@,\
     committed=%d rounds=%d ledger_valid=%b view_changes=%d collusions=%d@,\
     contracts=%dB replacements=%d msgs=%d bytes=%d events=%d wall=%.1fs@,\
     util: exec %.0f%% worker0 %.0f%%"
    t.protocol t.n t.batch_size t.throughput (t.avg_latency *. 1e3)
    (t.p50_latency *. 1e3) (t.p99_latency *. 1e3) t.committed_txns
    t.ledger_rounds t.ledger_valid t.view_changes t.collusions_detected
    t.contract_bytes t.replacements t.messages t.bytes_sent t.sim_events
    t.wall_seconds
    (t.exec_utilization *. 100.0)
    (t.worker_utilization *. 100.0);
  (match t.open_loop with
  | Some o ->
      Format.fprintf fmt
        "@,open-loop: offered %.0f txn/s (%d txns), injected=%d dropped=%d \
         queue p50=%.0f p99=%.0f max=%d"
        o.offered_rate o.offered_txns o.injected_txns o.dropped_txns
        o.queue_p50 o.queue_p99 o.max_depth
  | None -> ());
  if t.snap_installs + t.snap_rejects > 0 then
    Format.fprintf fmt
      "@,state transfer: installs=%d rejects=%d rounds_skipped=%d in=%dB out=%dB"
      t.snap_installs t.snap_rejects t.snap_rounds_skipped t.snap_bytes_in
      t.snap_bytes_out;
  (* Journal counters appear only when journaling ran, so fault-free
     digest runs keep the historical report layout. *)
  if t.jrn_appends + t.jrn_restarts > 0 then begin
    Format.fprintf fmt
      "@,journal: appends=%d flushes=%d bytes=%d snapshots=%d faults=%d"
      t.jrn_appends t.jrn_flushes t.jrn_bytes t.jrn_snapshots t.jrn_faults;
    if t.jrn_restarts > 0 then
      Format.fprintf fmt
        "@,recovery: restarts=%d replayed=%d rounds (%d txns)"
        t.jrn_restarts t.jrn_replayed_rounds t.jrn_replayed_txns
  end;
  if Array.length t.per_instance > 1 then
    Array.iter (fun s -> Format.fprintf fmt "@,%a" pp_instance s) t.per_instance;
  Format.fprintf fmt "@]"
