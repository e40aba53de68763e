(** Assembly of one full replica: [z] protocol instances + pipeline +
    execute thread + coordinator.

    The protocol is a value: {!create} takes any module satisfying the
    black-box interface {!Rcc_replica.Instance_intf.S} (MultiP passes
    [Pbft_instance], MultiZ [Zyzzyva_instance]), and the resulting
    replica has one type whatever the protocol. With [z = 1] and
    [unified = false] the same assembly runs the standalone protocol,
    which is how the baselines share the paper's parallel-pipelined
    architecture (§7.1). *)

open Rcc_common.Ids

type config = {
  n : int;
  f : int;
  z : int;
  self : replica_id;
  costs : Rcc_sim.Costs.t;
  timeout : Rcc_sim.Engine.time;
      (** replica watchdog (10 s in §7.5); in unified mode a stall of the
          execute thread past it escalates to the coordinator
          ({!Coordinator.on_stall}). Every 25 ms heartbeat, a primary
          whose instance the execute thread has waited on that long
          proposes null batches, so idle instances cannot block the
          round lockstep. *)
  collusion_wait : Rcc_sim.Engine.time;  (** coordinator wait (5 s in §7.5.3) *)
  checkpoint_interval : int;
  unified : bool;  (** true = RCC unification; false = standalone protocol *)
  recovery : Coordinator.recovery_mode;
  use_permutation : bool;  (** §3.4.1 digest-seeded execution order *)
  exec_on_worker : bool;
      (** standalone Zyzzyva: the single worker thread handles ordering
          AND speculative execution (§7.1) *)
  parallel_exec : bool;
      (** conflict-aware parallel execution: gather complete rounds into
          windows, partition by key overlap, execute dependency groups on
          a multi-server pool; false = serial ablation, byte-identical to
          the historical single execute thread *)
  exec_threads : int;  (** execute-pool size (parallel mode) *)
  exec_window : int;  (** max rounds per conflict-analysis window *)
  sign_speculative : bool;
      (** sign speculative responses (standalone Zyzzyva commit path) *)
  records : int;  (** YCSB table size *)
  materialize_state : bool;  (** whether this replica applies txns for real *)
  client_node_of : client_id -> int;
  byz : Rcc_replica.Byz.t;
  journal : Rcc_journal.Journal.t option;
      (** durable write-ahead journal for this incarnation, attached over
          the replica's persistent disk; [None] = in-memory-only replica
          (the digest-gated default) *)
}

type t

val create :
  (module Rcc_replica.Instance_intf.S) ->
  engine:Rcc_sim.Engine.t ->
  net:Rcc_messages.Msg.t Rcc_sim.Net.t ->
  keychain:Rcc_crypto.Keychain.t ->
  metrics:Rcc_replica.Metrics.t ->
  config ->
  t
(** Builds the node, installs routing, creates instances 0..z-1 of the
    given protocol (instance x initially led by replica x) and, in
    unified mode, the coordinator. *)

val start : t -> unit
(** Arm all instance watchdogs. *)

val halt : t -> unit
(** Silence this incarnation permanently (restart-from-disk): deliveries
    drop, queued sends become no-ops, the liveness monitor stops, and
    un-flushed journal records are lost. The persistent disk survives. *)

val restore : t -> Rcc_journal.Journal.recovery option
(** Run restart-from-disk recovery on a freshly created builder (before
    {!start}): install the newest verifiable snapshot, replay the
    journal suffix through the real execution path, and fast-forward
    the execute stage and every instance to the recovered frontier.
    Returns the recovery summary; [None] without a journal. *)

val journal : t -> Rcc_journal.Journal.t option

val config : t -> config
val exec : t -> Rcc_replica.Exec.t
val coordinator : t -> Coordinator.t option
val store : t -> Rcc_storage.Kv_store.t
val ledger : t -> Rcc_storage.Ledger.t
val txn_table : t -> Rcc_storage.Txn_table.t

val current_primary : t -> instance_id -> replica_id
(** The primary this replica currently believes leads the instance. *)

val transfer_stats : t -> Rcc_state_transfer.Manager.stats
(** Snapshot installs / rejects / bytes moved by this replica's
    state-transfer manager (all zero in fault-free runs). *)

val retained_slots : t -> instance_id -> int
(** Slots the instance's slot log holds — how tightly checkpoint GC
    bounds consensus memory. *)

val exec_utilization : t -> since:Rcc_sim.Engine.time -> float
(** Busy fraction of the execute thread since [since] — the ceiling the
    paper identifies for the MultiBFT variants. In parallel mode this is
    the scheduler lane (conflict scan + in-order commits). *)

val exec_pool_utilization : t -> since:Rcc_sim.Engine.time -> float option
(** Mean busy fraction of the execute pool; [None] in serial mode. *)

val worker_utilization : t -> instance_id -> since:Rcc_sim.Engine.time -> float
