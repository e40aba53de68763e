(** Build and run one simulated deployment: n replicas, the client fleet,
    the network, the fault injection — then collect a {!Report}. *)

type t

val build : ?tracer:Rcc_trace.Recorder.t -> Config.t -> t
(** Constructs everything but does not start the clock. When [tracer] is
    given, every layer (net, cpu, slots, coordinator, clients) records
    structured events into it as the simulation runs. *)

val run : t -> Report.t
(** Starts replicas and clients, runs the simulation for the configured
    duration and returns the measurements. *)

val run_config : ?tracer:Rcc_trace.Recorder.t -> Config.t -> Report.t
(** [build] + [run]. *)

val stop_clients : t -> unit
(** Stop the clients from injecting or retrying requests — closed-loop
    next-requests and the open-loop arrival process alike. Used between
    [run] and a drain phase: with the load source off, the engine can be
    stepped further so in-flight recovery (catch-up execution, view-sync
    adoption) completes before a final invariant judgement. *)

val client_requests_sent : t -> int
(** Total client requests (including resends) the pool has put on the
    network; the chaos runner samples it at [stop_clients] to assert the
    drain is injection-free. *)

(* Introspection for tests and examples (valid after [run]). *)

val config : t -> Config.t
val metrics : t -> Rcc_replica.Metrics.t
val ledger : t -> Rcc_common.Ids.replica_id -> Rcc_storage.Ledger.t
val store : t -> Rcc_common.Ids.replica_id -> Rcc_storage.Kv_store.t
val txn_table : t -> Rcc_common.Ids.replica_id -> Rcc_storage.Txn_table.t
val exec : t -> Rcc_common.Ids.replica_id -> Rcc_replica.Exec.t
val primary_of_instance :
  t -> Rcc_common.Ids.instance_id -> Rcc_common.Ids.replica_id
val replacements : t -> int
val client_pool : t -> Rcc_replica.Client_pool.t
val engine : t -> Rcc_sim.Engine.t

(* Chaos-layer hooks: the nemesis injects faults through the network and
   the per-replica byzantine specs; the invariant checker compares each
   replica's view of the coordinator state. *)

val net : t -> Rcc_messages.Msg.t Rcc_sim.Net.t

val byz_spec : t -> Rcc_common.Ids.replica_id -> Rcc_replica.Byz.t
(** The live behaviour spec of one replica; mutate it (via
    {!Rcc_replica.Byz.set}) to flip the replica's behaviour mid-run. *)

val primaries_view :
  t -> Rcc_common.Ids.replica_id -> Rcc_common.Ids.replica_id list
(** The primary set as believed by replica [r] (per-instance, in instance
    order). *)

val replacements_of : t -> Rcc_common.Ids.replica_id -> int
(** Unified primary replacements performed by replica [r]'s coordinator. *)

(* Durable storage: restart-from-disk and storage-fault injection. All of
   these require the config to have been built with [journal = true];
   without it the disks exist but hold nothing. *)

val restart_from_disk :
  t -> Rcc_common.Ids.replica_id -> Rcc_journal.Journal.recovery option
(** Replace replica [r] with a fresh incarnation recovered from its
    persistent disk: the orphan is halted (un-flushed journal records are
    lost — crash semantics), the successor installs the newest verifiable
    snapshot, replays the journal suffix, re-registers the network
    handler and starts. Also clears the net dead flag. Returns the
    recovery summary ([None] when journaling is off: the successor comes
    up empty and relies entirely on state transfer). *)

val set_storage_faults : t -> Rcc_common.Ids.replica_id -> float -> unit
(** Make replica [r]'s disk lie: each subsequent record write is torn /
    corrupted / silently lost with the given per-mode probability.
    [0.0] restores an honest disk. *)

val recovery_floor : t -> Rcc_common.Ids.replica_id -> int
(** Durable frontier proved by [r]'s most recent restart-from-disk (0 if
    never restarted) — a recovered replica's ledger must never regress
    below this. *)

val boundaries :
  t -> Rcc_common.Ids.replica_id -> Rcc_storage.Snapshot.boundary list
(** Replica [r]'s newest captured checkpoint boundaries, newest first. *)

val restarts : t -> int
val disk : t -> Rcc_common.Ids.replica_id -> Rcc_journal.Sim_disk.t
val journal_of :
  t -> Rcc_common.Ids.replica_id -> Rcc_journal.Journal.t option

val journal_area : t -> int
(** Journal-area bytes the disks hold now, summed over replicas. *)
