(** The coordinator thread: unification (§3.4).

    Maintains the paper's per-replica internal state
    [(primary, kmal, replace)]. It is the one module that builds, signs,
    counts and routes RCC's recovery messages (blames, contracts,
    contract requests and replies, view syncs), and provides:

    - {b Unified multi-leader election} (§3.4.2): view-change evidence is
      counted per instance; once f+1 distinct replicas blame an instance's
      primary, the replacement entry [(x, r)] is handled in deterministic
      [(round, instance)] order (Lemma 5.1) — but only when every other
      instance has either replicated round [r] or itself requested
      replacement. The new primary is the first replica that is neither
      known-malicious nor already a primary.

    - {b Collusion detection} (§3.4.3, Example 3.3): if, after a waiting
      period, f+1 distinct replicas have sent view-changes but no single
      primary has f+1 accusers, the evidence is inconsistent with an
      ordinary primary failure and a collusion attack is declared.

    - {b Recovery}: [Optimistic] broadcasts contracts on detection;
      [Pessimistic] broadcasts a contract after every executed round;
      [View_shift] deterministically rotates the whole primary set
      (implemented for the ablation; the paper rejects it because it
      sacrifices continuous ordering). *)

open Rcc_common.Ids

type recovery_mode = Optimistic | Pessimistic | View_shift

type instance_handle = {
  h_set_primary : replica_id -> view:view -> unit;
  h_adopt : round:round -> Rcc_messages.Batch.t -> cert:int list -> unit;
  h_answered : src:replica_id -> max_seen:round -> unit;
      (** a peer answered this replica's contract request for the
          instance; its window was adopted first *)
  h_max_seen : unit -> round;
      (** the instance's highest round with any slot (-1 if none) *)
  h_accepted : round:round -> (Rcc_messages.Batch.t * int list) option;
  h_incomplete : unit -> round list;
  h_primary : unit -> replica_id;
}

type config = {
  n : int;
  f : int;
  z : int;
  self : replica_id;
  collusion_wait : Rcc_sim.Engine.time;  (** extra wait before declaring collusion (5 s in §7.5.3) *)
  recovery : recovery_mode;
  min_cert : int;  (** accept-proof threshold for incoming contracts *)
  history_capacity : int;
      (** executed rounds retained for contract building; a replica's
          coordinator takes {!history_capacity} *)
}

type t

val create :
  config ->
  engine:Rcc_sim.Engine.t ->
  keychain:Rcc_crypto.Keychain.t ->
  handles:instance_handle array ->
  exec:Rcc_replica.Exec.t ->
  metrics:Rcc_replica.Metrics.t ->
  broadcast:(?size:int -> Rcc_messages.Msg.t -> unit) ->
  send:(?size:int -> dst:replica_id -> Rcc_messages.Msg.t -> unit) ->
  t

val primaries : t -> replica_id list
(** The primary of each instance, in instance order: one list, shared by
    every caller until a primary is next seated. *)

val primary_of : t -> instance_id -> replica_id
val view_of : t -> instance_id -> view
val known_malicious : t -> replica_id list

val sign_blame :
  Rcc_crypto.Keychain.t ->
  signer:replica_id ->
  instance:instance_id ->
  view:view ->
  blamed:replica_id ->
  round:round ->
  string
(** [signer]'s signature on its accusation of [blamed] for [instance]'s
    [round]. The signed digest binds the instance, the view being left
    (so a quorum cannot be replayed after the rotation pool wraps), the
    blamed primary and the round; the coordinator verifies peers' blames
    and certificate votes against the same digest. *)

val history_capacity : int
(** Executed rounds a replica retains for contract building. *)

val cert_of : t -> instance_id -> Rcc_messages.Msg.blame_vote list
(** The f+1 blame-quorum evidence behind [instance]'s latest view step
    (empty at view 0 and under [View_shift]); what {!gossip_views} ships. *)

val accuse :
  ?announce:(Rcc_messages.Msg.t -> unit) ->
  t ->
  instance:instance_id ->
  round:round ->
  blamed:replica_id ->
  unit
(** This replica accuses [blamed] of failing [instance]'s [round] (R2):
    the accusation is signed once, over the view being left, passed as a
    VIEW-CHANGE to [announce] (an instance's detected failure broadcasts
    it through the instance's worker), then counted here without being
    re-verified. Counting may install a new primary at once, so the
    VIEW-CHANGE goes out first. Records one [blame] trace event. *)

val on_stall : t -> round:round -> missing:instance_id list -> unit
(** The liveness monitor's escalation of a stall past the replica
    timeout at [round]: for each [missing] instance, accuse its primary
    (counted here, then broadcast), then broadcast one CONTRACT-REQUEST
    per missing instance for its rounds from [round] on. *)

val false_blame : t -> blamed:replica_id -> unit
(** Figure 12's false alarm: broadcast a signed accusation of [blamed]
    for the instance it leads, at this replica's stalled round, without
    counting it here. The attack lies under its own key; it forges
    nothing. No-op if [blamed] leads no instance. *)

val on_msg : t -> src:replica_id -> Rcc_messages.Msg.t -> unit
(** A recovery message from peer [src]; any other message is ignored.
    - VIEW-CHANGE: [src]'s accusation, counted only if its signature
      verifies for the view it leaves ([new_view - 1]) and the instance
      is in range.
    - CONTRACT: validated, then each entry adopted into its instance.
    - CONTRACT-REQUEST: [src] lacks the instance's batches from the
      round on (a stalled replica asks once per instance missing at its
      stalled round; a fresh primary asks for the instance it takes
      over). Answered with one CONTRACT-REPLY holding the instance's
      consecutive accepted rounds from there and this replica's highest
      round with any slot in it. The window stops at the first round
      this replica lacks or after a bounded number of rounds, carries no
      other instance's entries, and may be empty: every request is
      answered, and only a non-empty window counts toward the contract
      bytes. Certified views are shipped alongside. An out-of-range
      instance is ignored.
    - CONTRACT-REPLY: [src]'s answer to this replica's request; the
      window is adopted like a contract, then passed to the instance
      ([h_answered]), and a fresh primary ends its takeover on enough of
      them. An invalid window, or an out-of-range instance or [src], is
      ignored.
    - VIEW-SYNC: a peer's coordinator view of one instance, sent in
      reply to a blame naming an already-deposed primary, as heartbeat
      gossip, or with a contract reply. Adopted only if strictly newer
      than ours and, under the deterministic rotation, backed by a
      verifying f+1 blame-quorum certificate for the final view step.
      The primary and the skipped views' kmal additions are recomputed
      from the rotation, so a byzantine sender can forge neither view
      adoption nor primary placement. [View_shift] (no rotation) keeps
      the trusting behaviour as an ablation arm. *)

val gossip_views : t -> unit
(** Broadcast a {!Rcc_messages.Msg.View_sync} for every instance whose
    view has moved past the initial one. Called from the liveness
    monitor's heartbeat as anti-entropy: blame-triggered syncs only fire
    while traffic is unhealthy, so without gossip a replica that slept
    through the last replacement would stay stale forever. *)

val on_round_executed : t -> round:round -> Rcc_replica.Acceptance.t array -> unit
(** Execute-thread hook: retains the round for contract building and, in
    pessimistic mode, broadcasts the contract. *)

val on_rollback : t -> frontier:round -> unit
(** Speculative rollback unwound rounds [>= frontier]: drop their
    retained copies so contracts and recovery stop serving invalidated
    orderings; the rounds re-enter via {!on_round_executed} when they
    re-execute under the new view. *)

val replacements : t -> int
(** Unified primary replacements performed. *)
