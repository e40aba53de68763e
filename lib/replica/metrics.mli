(** Experiment metrics.

    Throughput is measured at the clients (a request counts when its
    response quorum is met), which is what makes Zyzzyva's collapse under
    failures visible even though replicas keep executing speculatively.
    Per-replica execution series back the Figure 12 timeline.

    Besides the cluster-wide aggregate, every protocol instance keeps
    its own sub-metrics (txns, latency histogram, view changes,
    throughput series): RCC's behaviour under attack is per-instance —
    one straggling primary drags exactly one instance — and the
    aggregate alone cannot show it. *)

type t

val create : n:int -> ?instances:int -> warmup:Rcc_sim.Engine.time -> unit -> t
(** [instances] sizes the per-instance breakdown (default 1). *)

val warmup : t -> Rcc_sim.Engine.time

val instances : t -> int

val record_completion :
  ?instance:int ->
  t ->
  now:Rcc_sim.Engine.time ->
  ntxns:int ->
  latency:Rcc_sim.Engine.time ->
  unit
(** A client's request completed. Counted toward throughput/latency (and
    the [instance]'s sub-metrics, when given) only after warmup;
    completions inside the warmup go to the separate warm-up series that
    only [timeline ~include_warmup:true] shows. *)

val record_exec :
  t -> replica:Rcc_common.Ids.replica_id -> now:Rcc_sim.Engine.time -> ntxns:int -> unit

val record_view_change : ?instance:int -> t -> unit

(** Speculative rollback: [rounds] uncommitted rounds ([txns] executed
    transactions) were unwound because a view change exposed a
    conflicting ordering in [instance]. *)
val record_rollback : ?instance:int -> t -> rounds:int -> txns:int -> unit
val record_collusion_detected : t -> unit
val record_contract_bytes : t -> int -> unit

val first_completion : t -> Rcc_sim.Engine.time option
(** When the first client request completed, warmup included; [None]
    if none did. After a crash at the start of a run, how long recovery
    took. *)

val committed_txns : t -> int
val committed_batches : t -> int

val throughput : t -> duration:Rcc_sim.Engine.time -> float
(** Post-warmup committed transactions per second, where [duration] is the
    full run length including warmup. *)

val avg_latency : t -> float
(** Seconds. *)

val latency_percentile : t -> float -> float
(** [latency_percentile t p] with [p] a fraction ([0.5] = median,
    [0.99] = p99), in seconds. *)

val timeline : ?include_warmup:bool -> t -> (float * float) array
(** Client-side throughput per 100 ms bucket, txns/s. By default only
    post-warmup completions appear (warmup buckets are zero), so the
    buckets sum to exactly [committed_txns]; [~include_warmup:true]
    merges the warm-up completions back in for full-run figures. *)

val exec_timeline : t -> replica:Rcc_common.Ids.replica_id -> (float * float) array

val view_changes : t -> int
val collusions_detected : t -> int
val contract_bytes : t -> int

(** {2 Per-instance breakdown}

    All accessors return zeros for an instance id outside
    [0, instances). *)

val instance_txns : t -> int -> int
val instance_throughput : t -> int -> duration:Rcc_sim.Engine.time -> float
val instance_avg_latency : t -> int -> float
val instance_latency_percentile : t -> int -> float -> float
val instance_view_changes : t -> int -> int
val instance_rolled_back_rounds : t -> int -> int
val instance_rolled_back_txns : t -> int -> int
val instance_timeline : t -> int -> (float * float) array
