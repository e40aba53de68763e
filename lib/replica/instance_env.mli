(** The environment a protocol instance runs in.

    An instance never touches the network or the execute thread directly;
    it talks through these callbacks, which the node builder wires to the
    simulated pipeline (charging worker CPU for marshalling and MACs on
    every send). This is the seam that makes the protocols reusable both
    standalone and as RCC instances. *)

open Rcc_common.Ids

type t = {
  n : int;
  f : int;
  z : int;
  instance : instance_id;
  self : replica_id;
  engine : Rcc_sim.Engine.t;
  costs : Rcc_sim.Costs.t;
  timeout : Rcc_sim.Engine.time;  (** replica view-change timeout (10 s in §7.5) *)
  checkpoint_interval : int;  (** rounds between checkpoints *)
  send : ?sign:bool -> dst:replica_id -> Rcc_messages.Msg.t -> unit;
      (** Point-to-point send; [sign] charges a digital signature instead
          of a MAC (HotStuff-style protocols). *)
  broadcast :
    ?sign:bool -> ?exclude:(replica_id -> bool) -> Rcc_messages.Msg.t -> unit;
      (** Send to every other replica, minus exclusions (byzantine
          primaries exclude their victims here). *)
  respond : Rcc_common.Ids.client_id -> Rcc_messages.Msg.t -> unit;
      (** Direct reply to a client (Zyzzyva LOCAL-COMMIT acks). *)
  accept : Acceptance.t -> unit;
      (** Replication of a round completed at this replica. *)
  on_stable : seq:round -> unit;
      (** This instance's checkpoint became stable for rounds [< seq];
          the execute stage uses the per-instance frontiers to bound its
          duplicate-reply cache. *)
  report_failure : round:round -> blamed:replica_id -> unit;
      (** Local failure detection; routed to the RCC coordinator (unified
          mode) or handled by the instance's own view-change logic. *)
  rollback : frontier:round -> unit;
      (** A certified view change exposed an ordering conflicting with
          this instance's executed speculative rounds at or above
          [frontier]; the execute stage must unwind them (and the
          coordinator forget its retained copies) before the new view's
          orders re-execute. *)
  null_fill : proposed_upto:round -> (Rcc_messages.Batch.t -> unit) -> unit;
      (** Propose null batches through the given proposer, from the
          execute stage's stalled round (past [proposed_upto]) up to the
          horizon the other instances already reached, so an instance
          that fell behind does not throttle the round rate. The liveness
          monitor's idle fill and a finished unified takeover share it. *)
  sign_blame : view:view -> blamed:replica_id -> round:round -> string;
      (** Sign this replica's accusation against [blamed] for this
          instance with its own key (the coordinator's blame digest), so
          outgoing view-change messages carry verifiable evidence. *)
  byz : Byz.t;  (** how this replica misbehaves when primary *)
  unified : bool;
      (** true under RCC: primary replacement is decided by the
          coordinator (unified multi-leader election, §3.4.2); false for
          the standalone protocol's own view-change. *)
}

val quorum_2f1 : t -> int
(** [2f+1] — the BFT accept quorum. New code inside instances should
    prefer {!Rcc_proto_core.Quorum}, which tracks the votes too. *)

val majority_nf : t -> int
(** [f+1] — at least one honest replica. *)

val tracing : t -> bool
(** Whether the engine carries a trace recorder. *)

val trace : t -> Rcc_trace.Event.payload -> unit
(** Record an event tagged with this env's replica and instance ids.
    No-op without a tracer. *)

val instrument : t -> t
(** The same env with [accept] and [report_failure] wrapped to emit
    {!Rcc_trace.Event.Slot_accept} / {!Rcc_trace.Event.Blame} trace
    events before forwarding. Builders pass [instrument env] to
    [P.create] so every protocol traces its acceptance path without
    per-protocol code. *)
