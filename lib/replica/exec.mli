(** The execute stage (§3.4.1 / §6).

    Collects per-instance acceptances, and once all [z] instances of a
    round have replicated, executes the round's batches in the configured
    deterministic order, appends the block to the ledger, and responds to
    clients. Rounds commit strictly in order even when instances run
    ahead (§3.5 pipelining), which is the only cross-instance coordination
    in the fault-free case.

    This module is the only code that turns ordered acceptances into
    state, and it does so one way: each batch of a round runs through the
    member step (duplicate check, KV apply, duplicate-reply record) in
    replay order, then the commit step appends the round's block and
    txn-table rows. Live rounds add responses, metrics, the round
    history, the journal record, the boundary capture and the
    coordinator callback on top;
    journal recovery ({!replay_round}) runs the same two steps without
    them. Two schedulers feed that one path:

    - {!Serial} (the ablation baseline): each complete round reserves the
      execute thread for its whole cost (members plus the block hash), in
      round order — the global ordering barrier that caps MultiP
      throughput. Within the reservation its members complete one by one
      in replay order: member k executes, and its client reply leaves,
      at the reservation's start plus the costs of members 0..k, since
      its result depends only on the members before it. The last member
      commits the round. A queued round holds one engine event; a round
      in flight is fenced by {!rollback_to} and {!install_snapshot} like
      a parallel window's round.
    - [Parallel]: a conflict-aware scheduler. Complete consecutive
      rounds are gathered into a window, partitioned into dependency
      groups by read/write key-set intersection ({!Conflict}), and the
      groups' member steps run on a multi-server execute pool in any
      interleaving. The commit steps run in round order on the scheduler
      lane, so ledger layout, replay order and the replies' contents are
      identical to serial execution for any workload; a window's replies
      leave at its commits. Windows are
      pipelined one at a time: the next window's conflict scan and pool
      execution overlap the previous window's commit jobs, except across
      a checkpoint boundary — a window never straddles one, and the next
      is not gathered until the boundary round committed.

    Either way, committing the last round before a boundary captures the
    replica's one checkpoint value ({!boundaries}) from settled state. *)

type sched =
  | Serial
  | Parallel of { pool : Rcc_sim.Cpu.pool; window : int }
      (** [window] = max consecutive rounds analyzed per conflict scan;
          larger windows expose more inter-round parallelism at the cost
          of a quadratic (in batches) pairwise scan. *)
(** How rounds are scheduled onto the one replay path. *)

type persist = {
  p_round : round:Rcc_common.Ids.round -> Acceptance.t array -> unit;
      (** a round committed to the ledger; acceptances in deterministic
          replay order *)
  p_rollback : frontier:Rcc_common.Ids.round -> unit;
      (** speculative rollback truncated the ledger back to [frontier]
          (the post-truncate next round) *)
  p_stable : floor:Rcc_common.Ids.round -> unit;
      (** the cross-instance stable checkpoint floor advanced to
          [floor] *)
  p_snapshot :
    Rcc_storage.Snapshot.boundary -> blocks:Rcc_storage.Block.t array -> unit;
      (** a checkpoint boundary was captured: the boundary (with its
          encoded KV section and duplicate-reply cache) and the ledger
          prefix up to it *)
}
(** Observer seam for the durable write-ahead journal: the journal layer
    (which lives above this library) registers callbacks instead of this
    module depending on it. All four fire synchronously on the execute
    lane, after the corresponding state change is applied. *)

type t

val create :
  engine:Rcc_sim.Engine.t ->
  costs:Rcc_sim.Costs.t ->
  server:Rcc_sim.Cpu.server ->
  z:int ->
  self:Rcc_common.Ids.replica_id ->
  store:Rcc_storage.Kv_store.t ->
  ledger:Rcc_storage.Ledger.t ->
  txn_table:Rcc_storage.Txn_table.t ->
  current_primaries:(unit -> Rcc_common.Ids.replica_id list) ->
  respond:(Rcc_common.Ids.client_id -> Rcc_messages.Msg.t -> unit) ->
  metrics:Metrics.t ->
  ?reorder:(Acceptance.t array -> Acceptance.t array) ->
  ?on_executed:(Rcc_common.Ids.round -> unit) ->
  ?materialize:bool ->
  ?sign_speculative:bool ->
  ?sched:sched ->
  ?checkpoint_interval:int ->
  unit ->
  t
(** [reorder] implements §3.4.1's execution-order selection; the default
    is instance order. RCC installs the digest-seeded permutation.
    [on_executed] fires after a round executes and enters the round
    history (the coordinator drives pessimistic recovery from it).
    [materialize = false] (large-scale experiments) charges the CPU cost
    of execution without mutating the KV store, so n replicas need not
    hold n copies of the half-million-record YCSB table; the runtime keeps
    replica 0 materialized.
    [sign_speculative] charges a digital signature per speculative
    response: standalone Zyzzyva clients assemble commit certificates from
    signed responses, whereas under RCC recovery is unification's job and
    responses carry MACs.
    [sched] defaults to {!Serial}.
    [checkpoint_interval] (default 0 = none) paces checkpoint boundaries:
    one every few checkpoint intervals, the multiple fixed in this module
    and nowhere else. *)

val set_on_executed : t -> (Rcc_common.Ids.round -> unit) -> unit
(** Late wiring for the coordinator, which is constructed after the
    execute thread. *)

val set_persist : t -> persist -> unit
(** Register the durable-journal observer (see {!persist}). *)

val boundaries : t -> Rcc_storage.Snapshot.boundary list
(** The newest captured checkpoint boundaries (at most three), newest
    first. A boundary is captured when the round before it commits, from
    state settled exactly there (head, KV section and duplicate-reply
    cache); a rollback drops those past its resume point, and
    re-execution captures them again. *)

val notify : t -> Acceptance.t -> unit
(** An instance replicated its round-[r] batch. Idempotent per
    (instance, round). *)

val next_round : t -> Rcc_common.Ids.round
(** The lowest round not yet scheduled for execution. *)

val last_move : t -> Rcc_sim.Engine.time
(** When the execution frontier last moved: the last round executed
    (just before {!set_on_executed}'s callback), {!rollback_to},
    {!install_snapshot} or journal replay; creation time before any.
    The liveness monitor's stall clock: nothing has executed since. *)

val max_pending_round : t -> Rcc_common.Ids.round
(** Highest round with any acceptance buffered (the pipeline horizon);
    [next_round t - 1] when nothing is pending. O(1): maintained as a
    notify-time watermark rather than a fold over the buffer. *)

val executed_rounds : t -> int

val executed_txns : t -> int

val executed_members : t -> int
(** Members of rounds in flight (executing, not yet committed) that have
    executed. Under {!Serial} at most one round is in flight, so the
    ledger length plus this is the replica's executed position: two
    replicas at the same position hold the same KV state. *)

val missing_instances : t -> round:Rcc_common.Ids.round -> Rcc_common.Ids.instance_id list
(** Instances whose acceptance for [round] has not arrived — the
    collusion-detection signal read by the coordinator. *)

val accepted : t -> round:Rcc_common.Ids.round -> instance:Rcc_common.Ids.instance_id -> Acceptance.t option
(** This replica's acceptance of [instance]'s round [round]: buffered at
    or past {!next_round}, from the round history below it. The one
    record contracts are built from. *)

val history_capacity : int
(** Executed rounds the round history keeps below the cross-instance
    stable floor ({!Round_history}); rounds at or above it are all kept,
    for {!rollback_to}. *)

val on_stable : t -> instance:Rcc_common.Ids.instance_id -> seq:Rcc_common.Ids.round -> unit
(** [instance]'s checkpoint became stable for rounds [< seq]. Once every
    instance's stable frontier passes a round, duplicate-reply entries
    first executed below the common frontier are evicted — bounding the
    cache to the unstable window (a client replaying a batch that old
    would already hold 2f+1 replies). Each client's newest evicted batch
    id is kept, so a retransmission of an evicted batch that is ordered
    again later is still skipped, not executed twice. *)

val replied_retained : t -> int array
(** Per-instance count of duplicate-reply entries currently retained
    (entries merged from a snapshot count toward instance 0). *)

val replied_evicted : t -> int
(** Total entries evicted by checkpoint-driven GC since creation. *)

val rollback_to : t -> frontier:Rcc_common.Ids.round -> instance:Rcc_common.Ids.instance_id -> unit
(** Speculative rollback: a certified view change in [instance] exposed
    an ordering that conflicts with locally executed speculative rounds.
    Unwinds every executed-but-unstable round at or above [frontier] —
    KV effects are undone from the per-round write journal, ledger blocks
    above the frontier are dropped, and their transaction-table rows and
    duplicate-reply entries are evicted. The round history gives the
    unwound rounds back, and the surviving instances' acceptances, as
    they ran, re-enter the pending buffer and re-execute once
    [instance]'s new view re-delivers its orders; an in-flight parallel
    window is fenced the way a snapshot install fences one. The caller
    must keep [frontier] above [instance]'s commit certificate and stable
    checkpoint (conflicts at or below stable are state transfer's job). *)

val install_snapshot : t -> Rcc_storage.Snapshot.t -> unit
(** Install a verified snapshot covering rounds [< seq] — from a state
    transfer donor or from a disk slot: replace the ledger with its chain
    and (when materialized) the KV store with its table, reset the batch
    digest memo, jump the execution frontier to [seq], drop buffered
    acceptances the snapshot covers, merge its duplicate-reply cache
    (local entries win), and drain any buffered rounds at or past the
    boundary. A queued serial round or an in-flight parallel window
    overtaken by the install skips its superseded members and commits.
    The frontier part is a no-op unless [seq] advances it. *)

(** {2 Journal replay}

    Recovery from disk rebuilds a fresh incarnation's state through the
    same member and commit steps as live execution. Replay sends no
    responses, records no metrics, writes no round history or journal
    record, captures no boundary and calls no [on_executed]. *)

val replay_round :
  t ->
  round:Rcc_common.Ids.round ->
  primaries:Rcc_common.Ids.replica_id list ->
  Acceptance.t array ->
  int
(** Replay a journaled round (acceptances in replay order, [round] =
    {!next_round}): execute its batches, append its block with the
    journaled [primaries], record its txn-table rows and duplicate-reply
    entries (with their real instance and batch id), and advance
    {!next_round} past it. Returns the txns executed (duplicates
    excluded). *)

val replay_rollback : t -> frontier:Rcc_common.Ids.round -> unit
(** Replay a journaled rollback: undo the KV effects, ledger blocks,
    txn-table rows and duplicate-reply entries of rounds [>= frontier],
    and move {!next_round} back to it. No-op unless [frontier] is below
    the ledger's next round. *)

val replay_stable : t -> floor:Rcc_common.Ids.round -> unit
(** Replay a journaled stable floor: rounds below it can never roll
    back, so their KV undo records are dropped. *)
