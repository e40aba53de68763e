(** The coordinator thread: unification (§3.4).

    Maintains the paper's per-replica internal state
    [(primary, kmal, replace)] and provides:

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
  history_capacity : int;  (** executed rounds retained for contract building *)
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
val primary_of : t -> instance_id -> replica_id
val view_of : t -> instance_id -> view
val known_malicious : t -> replica_id list

val blame_digest :
  instance:instance_id -> view:view -> blamed:replica_id -> round:round -> string
(** What a blame signature commits to: the instance, the view being left
    (so a quorum cannot be replayed after the rotation pool wraps), the
    blamed primary, and the round the failure was detected in. Exposed so
    protocol instances and the liveness monitor sign their accusations
    with the same digest the coordinator verifies. *)

val cert_of : t -> instance_id -> Rcc_messages.Msg.blame_vote list
(** The f+1 blame-quorum evidence behind [instance]'s latest view step
    (empty at view 0 and under [View_shift]); what {!gossip_views} ships. *)

val on_local_failure : t -> instance:instance_id -> round:round -> blamed:replica_id -> unit
(** An instance at this replica detected its primary faulty (R2). The
    coordinator signs the accusation with its own replica key. *)

val on_view_change :
  t ->
  src:replica_id ->
  instance:instance_id ->
  view:view ->
  blamed:replica_id ->
  round:round ->
  signature:string ->
  unit
(** Evidence from another replica's instance: [view] is the view the
    accuser is leaving ([new_view - 1] on the wire) and [signature] its
    signature over {!blame_digest}. Unauthenticated or wrong-view
    accusations count toward nothing. *)

val on_view_sync :
  t ->
  instance:instance_id ->
  view:view ->
  primary:replica_id ->
  kmal:replica_id list ->
  cert:Rcc_messages.Msg.blame_vote list ->
  unit
(** A peer's current coordinator view for [instance], sent in reply to a
    blame that named an already-deposed primary, as heartbeat gossip, or
    piggybacked on a contract reply. Adopted only if strictly newer than
    ours AND — under the deterministic rotation — backed by a verifying
    f+1 blame-quorum certificate for the final view step; the primary and
    the skipped-view kmal additions are recomputed from the rotation, so
    a byzantine sender can forge neither view adoption nor primary
    placement. [View_shift] (no rotation) keeps the legacy trusting
    behaviour as an ablation arm. *)

val gossip_views : t -> unit
(** Broadcast a {!Rcc_messages.Msg.View_sync} for every instance whose
    view has moved past the initial one. Called from the liveness
    monitor's heartbeat as anti-entropy: blame-triggered syncs only fire
    while traffic is unhealthy, so without gossip a replica that slept
    through the last replacement would stay stale forever. *)

val on_contract : t -> Rcc_messages.Msg.t -> unit

val on_contract_request :
  t -> src:replica_id -> round:round -> instance:instance_id -> unit
(** A peer lacks [instance]'s batches from [round] on (a stalled replica
    asks once per instance missing at its stalled round; a fresh primary
    asks for the instance it takes over). Reply to [src] with one
    CONTRACT-REPLY holding [instance]'s consecutive accepted rounds
    starting at [round] and this replica's highest round with any slot in
    [instance]. The window stops at the first round this replica lacks or
    after a bounded number of rounds, carries no other instance's
    entries, and may be empty: every request is answered, and only a
    non-empty window counts toward the contract bytes. Certified views
    are shipped alongside. A request whose [instance] is out of range is
    ignored. *)

val on_contract_reply :
  t ->
  src:replica_id ->
  instance:instance_id ->
  round:round ->
  max_seen:round ->
  Rcc_messages.Msg.contract_entry list ->
  unit
(** [src]'s answer to this replica's request for [instance]: adopt the
    window like {!on_contract}, then pass the answer to the instance
    ([h_answered]) — a fresh primary ends its takeover on enough of
    them. An invalid window, or an out-of-range [instance] or [src], is
    ignored. *)

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
