(** Interface every pluggable BFT protocol instance implements.

    RCC treats the protocol as a black box satisfying requirements R1–R4
    (§3.3); this module type is that black box. PBFT, Zyzzyva, HotStuff
    and the crash-fault protocol implement it; RCC composes [z] instances
    of one of them per replica, taking the module as a value
    ({!Rcc_core.Replica_builder.create}). *)

open Rcc_common.Ids

module type S = sig
  type t

  val create : Instance_env.t -> t

  val start : t -> unit
  (** Arm the failure-detection watchdog. *)

  val handle : t -> src:replica_id -> Rcc_messages.Msg.t -> unit
  (** Process one protocol message (already charged to the worker). *)

  val submit_batch : t -> Rcc_messages.Batch.t -> unit
  (** Primary path: order a validated client batch. No-op on backups. *)

  val primary : t -> replica_id

  val set_primary : t -> replica_id -> view:view -> unit
  (** Unified replacement (RCC coordinator) installs a new primary; the
      instance resumes from its incomplete rounds. *)

  val adopt : t -> round:round -> Rcc_messages.Batch.t -> cert:int list -> unit
  (** Accept a round learned through a recovery contract: mark it
      replicated and report it upward without re-running consensus.
      [cert] is the f + 1 or more peers that reported it. *)

  val max_seen : t -> round
  (** Highest round with any slot activity (-1 if none): the watermark a
      contract reply reports for this instance. *)

  val on_contract_reply :
    t ->
    src:replica_id ->
    max_seen:round ->
    reported:(round * Rcc_messages.Batch.t) list ->
    unit
  (** [src] answered this replica's CONTRACT-REQUEST for the instance,
      reporting its {!max_seen} and the batches it accepted by round;
      the reply was counted, and what f + 1 peers reported adopted,
      first. A fresh unified primary counts these answers to end its
      takeover and re-proposes a reported batch it did not adopt (see
      {!Rcc_proto_core.Leader}); everyone else ignores them. *)

  val proposed_upto : t -> round
  (** Highest round this instance's primary has proposed (-1 if none);
      used by the liveness monitor to fill idle instances with null
      batches without double-proposing in-flight rounds. Protocols that
      manage their own pacemaker (HotStuff) return [max_int] to opt out. *)

  val resign_primary : t -> unit
  (** Called on a freshly recovered incarnation (restart-from-disk) whose
      volatile sequencing state is stale: if this replica currently leads
      the instance it must stop proposing — holding submitted batches —
      until a view change re-establishes sequencing through the usual
      state-exchange takeover. The lost incarnation may already have
      assigned (and broadcast) sequence numbers past anything the disk
      proves; re-using them would equivocate. No-op on backups, and for
      rotating-leader protocols with no volatile sequencing state. *)

  val fast_forward : t -> proof:Rcc_storage.Checkpoint_store.proof -> unit
  (** State covering rounds [< proof.seq] was just installed (a
      transferred snapshot or a journal recovery): collect those slots,
      advance the accept frontier to [proof.seq - 1], and adopt the
      checkpoint proof (the chain head at [proof.seq] and its
      attesters, none after a recovery) so ordinary checkpointing
      resumes from there. Must not touch rounds [>= proof.seq]. *)

  val retained_slots : t -> int
  (** Slots the instance's slot log holds, surfacing how tightly
      checkpoint GC is bounding memory. *)

  val checkpoint_log : t -> Rcc_storage.Checkpoint_store.t
  (** The instance's stable-checkpoint proofs — the supporting evidence a
      state-transfer donor attaches to snapshot offers. *)

  val cost_of : Rcc_sim.Costs.t -> Rcc_messages.Msg.t -> Rcc_sim.Engine.time
  (** Worker CPU to charge for receiving a message of this protocol. *)
end
