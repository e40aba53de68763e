(** Durable write-ahead journal with restart-from-disk recovery.

    Each replica (when `--journal` is on) appends every committed round —
    the acceptances in deterministic replay order, including batch bytes
    and certificates — plus rollback, stable-checkpoint and view records
    to its {!Sim_disk}. Appends are buffered and group-committed: a flush
    is scheduled a short interval after the first buffered record (or
    forced by a byte threshold) and charges one modeled fsync plus
    per-byte sequential-write cost to a dedicated disk lane, off the
    execute path. Periodically the builder persists a full checkpoint
    {!Rcc_storage.Snapshot} into one of the disk's two slots.

    The journal area is bounded. When a snapshot write completes, the
    writer reads the slot back and checks it as {!load_snapshot} would
    (framing checksum, decode, chain verification); a slot that passes
    is verified. The anchor is the newest verified slot whose seq is at
    most the highest stable floor this writer made durable: rollbacks
    never go below the stable floor, so no rollback can erase it, and
    the disk never overwrites it. After every flush and snapshot write
    the writer drops the area oldest-first below the anchor's seq,
    stopping at the first record whose round (a round record's round, a
    stable record's floor, a rollback record's frontier) is not below
    it, and at the first torn or corrupt record. Recovery installs the
    anchor or a newer slot and skips every record the drop could have
    taken, so it returns the same result from the compacted disk as
    from the same disk uncompacted. The read-back and the drop charge no
    modeled time and count as no write.

    A flush that makes a rollback record durable also erases every slot
    above its frontier ({!Sim_disk.invalidate_above}): those slots hold
    state the rollback unwound.

    Recovery ({!recover}) rebuilds a fresh replica's state from the disk
    alone, through its execute stage: {!Rcc_replica.Exec.install_snapshot}
    installs the newest verifiable snapshot, then
    {!Rcc_replica.Exec.replay_round} and
    {!Rcc_replica.Exec.replay_rollback} replay the journal suffix.
    Recovery itself only frames and checksums records, finds the longest
    valid prefix and the final stable floor, and stops at the first
    torn/corrupt/missing record, round gap, or speculative round that
    floor does not cover. Whatever the disk cannot prove is left to state
    transfer.

    Record framing: each record is [magic "RJL1" | type byte | u64 body
    length | 8-byte checksum | body]. The checksum is an {!Xxh64} of the
    whole body of stable, rollback and view records, stored big-endian.
    It guards against the disk's own random faults only, which is all a
    replica's own disk can do to it, so it need not be cryptographic;
    what other replicas attest or sign stays SHA-256. In a round
    record it covers every body byte except each batch's encoded txns:
    ids, certificates, flags, digests and signatures. Those txn bytes
    are bound by the batch's stored 32-byte digest, which is a SHA-256
    over exactly them ({!Rcc_messages.Batch.digest_of_txns}). So the txn
    bytes are hashed once, by the client, rather than by every
    journaling replica, and their encoding is cached in the batch
    ({!Rcc_messages.Batch.payload}) and shared: the stored round record
    is its framing with each payload spliced in by reference
    ({!Sim_disk.spliced}), so n replicas journaling one batch hold its
    txn bytes once. Recovery rejects a round
    record whose checksum fails or whose payload does not hash to its
    stored digest. Each batch in a round record is a
    {!Rcc_messages.Batch.write} record, the one {!Rcc_messages.Codec}
    puts in messages, and every field is {!Rcc_common.Wire} framing.
    Snapshot slots use a whole-body {!Xxh64} checksum with magic "RJS1"
    around a {!Rcc_storage.Snapshot.encode} blob, because
    [Snapshot.verify] pins the chain but not the KV/reply bytes. The slot
    holds the boundary's encoded KV section by reference, spliced into
    that blob, and the checksum streams the framing head, the section and
    the framing tail as one input. *)

type t

val attach :
  engine:Rcc_sim.Engine.t ->
  costs:Rcc_sim.Costs.t ->
  disk:Sim_disk.t ->
  self:Rcc_common.Ids.replica_id ->
  ?primaries:Rcc_common.Ids.replica_id list ->
  unit ->
  t
(** Attach a journal writer for one incarnation over a persistent disk.
    Creates the disk-lane CPU server; buffered state dies with the
    incarnation ({!halt}), the disk does not. [primaries] is the genesis
    configuration snapshot slots are read back against; without it the
    slots this writer writes are never verified, so none of them becomes
    the anchor. *)

val log_round :
  t ->
  round:Rcc_common.Ids.round ->
  primaries:Rcc_common.Ids.replica_id list ->
  Rcc_replica.Acceptance.t array ->
  unit
(** Append one committed round (acceptances in replay order). Also emits
    a view record whenever [primaries] changed since the last round. *)

val log_rollback : t -> frontier:Rcc_common.Ids.round -> unit
(** Append a rollback record. [frontier] must be at or above every
    stable floor logged so far: rounds below the stable floor are never
    rolled back. *)

val log_stable : t -> floor:Rcc_common.Ids.round -> unit

val write_snapshot :
  t ->
  Rcc_storage.Snapshot.boundary ->
  blocks:Rcc_storage.Block.t array ->
  replied:Rcc_storage.Snapshot.replied ->
  unit
(** Persist the checkpoint at a boundary (state after rounds [< b_seq],
    with the ledger prefix [blocks] and the reply cache [replied]) into a
    snapshot slot, charged to the disk lane like a flush. The slot holds
    the boundary's encoded KV section by reference. A rollback record
    still buffered is flushed first, so it reaches the disk before the
    slot does. *)

val halt : t -> unit
(** Crash semantics: un-flushed buffered records are lost, scheduled
    flushes become no-ops. The underlying disk keeps what it has. *)

val disk : t -> Sim_disk.t
(** The persistent disk this incarnation writes to. *)

(** {2 Counters (for Report)} *)

val appends : t -> int
val flushes : t -> int
val bytes_flushed : t -> int
val snapshots_written : t -> int

val durable_round : t -> Rcc_common.Ids.round
(** Highest round covered by a completed flush — what the disk proves,
    assuming it didn't lie (recovery re-derives the truth). *)

(** {2 Recovery} *)

type recovery = {
  r_frontier : Rcc_common.Ids.round;
      (** ledger next-round after replay: the durable frontier *)
  r_snapshot_seq : Rcc_common.Ids.round;  (** installed snapshot boundary; 0 = none *)
  r_replayed_rounds : int;
  r_replayed_txns : int;
  r_dropped_bytes : int;  (** journal bytes discarded at a torn/corrupt record *)
}

val recover :
  engine:Rcc_sim.Engine.t ->
  self:Rcc_common.Ids.replica_id ->
  disk:Sim_disk.t ->
  exec:Rcc_replica.Exec.t ->
  primaries:Rcc_common.Ids.replica_id list ->
  unit ->
  recovery
(** Rebuild a fresh incarnation's execute stage [exec] — its ledger, KV
    store, txn table, duplicate-reply cache and frontier — from the disk:
    newest verifiable snapshot first, then the journal suffix. Every
    replayed round runs through the same member and commit steps as live
    execution, so a clean disk reproduces the pre-crash state
    byte-for-byte up to the durable frontier, reply-cache entries
    included. [primaries] is the genesis configuration snapshot chains
    are verified against. Faulty records truncate the replay — never
    install corrupt state. *)

(** {2 Test support} *)

val load_snapshot :
  Sim_disk.t ->
  primaries:Rcc_common.Ids.replica_id list ->
  Rcc_storage.Snapshot.t option
(** The newest snapshot slot whose framing, checksum, decode and chain
    verification all pass — the one {!recover} installs. *)

val scan_rounds :
  string -> (Rcc_common.Ids.round * Rcc_replica.Acceptance.t array) list
(** The round records in the longest valid record prefix of a journal
    area ({!Sim_disk.journal}), in order — what recovery would replay
    before its round-gap and speculation checks. *)
