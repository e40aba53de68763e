(** Primary-backup leadership, shared by PBFT, Zyzzyva and the crash-fault
    instance.

    Each of those instances embeds one [t]: the view and its primary, the
    primary's sequence counter, failure detection (the watchdog and the
    VIEW-CHANGE it raises, requirement R2 of §3.3), primary installation
    and the fresh-primary takeover (R4, §3.4), checkpoint bookkeeping and
    the batches held while the primary may not propose. The instance
    keeps only its normal-case phases and passes in what differs between
    protocols: its re-propose step, its stall probe and its install-time
    hook.

    Repair floor. [unproven_from] is the lowest round this replica
    cannot prove it shares with the cluster: the accept frontier + 1
    where accepted rounds are quorum-certified ([certified]: PBFT, CFT),
    and [max committed stable + 1] for Zyzzyva, whose rounds above its
    last commit certificate and stable checkpoint are speculative.

    Takeover. Under RCC, a view install sends at most one
    CONTRACT-REQUEST, for [unproven_from]: always from the new primary,
    and from a backup when it holds accepted rounds at or above the
    floor (never for PBFT and CFT, whose floor is past their frontier).
    Every peer answers with the instance's contiguous window from that
    round and its own [max_seen]; an adopted round that conflicts with a
    speculative one rolls it back. A replica installed as primary first
    stops proposing ([holding]) and announces the view with an empty
    NEW-VIEW. Where accepted rounds are quorum-certified, the takeover
    completes as soon as n − f replicas, this one included, have
    answered and, with their windows adopted, no answer reports a round
    past this replica's [max_seen]: any accepted round was then seen by
    one of them. Otherwise it completes after a grace period of
    [timeout / 8], if the replica is still primary of that view and
    still holding; Zyzzyva ([certified = false]) always waits the grace,
    since a speculative round executed by one replica need not be in any
    n − f answers. Under RCC no blame hook touches [holding], so a
    watchdog blame never ends a takeover.
    Standalone, the primary re-proposes at once, and its re-propose step
    announces the view. Completing the takeover clears [holding], moves
    [next_seq] past every round seen, runs the instance's re-propose
    step, flushes the held batches in submission order and, under RCC,
    null-fills the instance up to the horizon the other instances
    reached ([Env.null_fill]). *)

type takeover
(** A unified takeover waiting for its peers' answers. *)

type 'a t = {
  env : Rcc_replica.Instance_env.t;
  log : 'a Slot_log.t;  (** the instance's slot log *)
  certified : bool;
      (** an accepted round is backed by a quorum, so n − f answers can
          end a takeover *)
  mutable view : Rcc_common.Ids.view;
  mutable primary : Rcc_common.Ids.replica_id;
  mutable next_seq : Rcc_common.Ids.round;  (** primary: next round to propose *)
  mutable holding : bool;
      (** hold submitted batches instead of proposing: set through a
          unified takeover, after [resign_primary], and by a PBFT
          replica running its own view change *)
  mutable committed : Rcc_common.Ids.round;
      (** highest round a client commit certificate proved; only a
          speculative instance (Zyzzyva) sets it; -1 initially *)
  vc_votes : Quorum.Tally.t;  (** standalone view change: new view -> voters *)
  mutable vc_sent_for : Rcc_common.Ids.view;
      (** highest new view this replica voted for *)
  mutable last_failure_report : Rcc_common.Ids.round;  (** -1 if none *)
  ckpt : Checkpointing.t;
  held : Held_batches.t;
  mutable running : bool;  (** watchdog armed *)
  mutable takeover : takeover option;  (** pending unified takeover *)
}

val create :
  certified:bool -> Rcc_replica.Instance_env.t -> 'a Slot_log.t -> 'a t
(** View 0 led by replica [env.instance] (P_x initially runs on replica
    x, §4). *)

val is_primary : 'a t -> bool

val proposed_upto : 'a t -> Rcc_common.Ids.round
(** [next_seq - 1]. *)

val submit_batch :
  'a t -> Rcc_messages.Batch.t -> propose:(Rcc_messages.Batch.t -> unit) -> unit
(** On the primary, [propose] the batch, or hold it while [holding]. A
    held batch is never dropped: the liveness monitor's null fills arrive
    this way and are sent only once. No-op on backups. *)

val broadcast_view_change : 'a t -> round:Rcc_common.Ids.round -> unit
(** Standalone view change: broadcast a VIEW-CHANGE blaming the primary
    for [round], asking for view [view + 1], and count this replica's own
    vote. *)

val detect_failure :
  ?on_blame:(unit -> unit) -> 'a t -> round:Rcc_common.Ids.round -> unit
(** Blame the primary for [round] unless a round at or past it was
    already reported in this view: run [on_blame], then accuse the
    primary through [Env.report_failure ~announce:true] (under RCC the
    coordinator signs and broadcasts the VIEW-CHANGE; standalone
    {!broadcast_view_change} runs first). *)

val unproven_from : 'a t -> Rcc_common.Ids.round
(** The repair floor (see above): [frontier + 1] when [certified],
    otherwise [max committed stable + 1]. A view install re-checks the
    instance from here, and Zyzzyva rolls back only rounds at or above
    it. *)

val install_view :
  'a t ->
  view:Rcc_common.Ids.view ->
  primary:Rcc_common.Ids.replica_id ->
  on_install:(unit -> unit) ->
  finish:(unit -> unit) ->
  propose:(Rcc_messages.Batch.t -> unit) ->
  unit
(** Install [primary] for [view]: clear [holding], run [on_install],
    drop the held batches unless this replica leads the new view, and
    prune the view-change votes. Under RCC, send the install's one
    CONTRACT-REQUEST (see above). The new primary then takes over;
    [finish] is its re-propose step and [propose] re-submits the held
    batches. *)

val on_contract_reply :
  'a t -> src:Rcc_common.Ids.replica_id -> max_seen:Rcc_common.Ids.round -> unit
(** Count [src]'s answer to a pending takeover's CONTRACT-REQUEST (its
    window already adopted) and complete the takeover once the answers
    settle it (see above). No-op without a pending takeover. *)

val resign_primary : 'a t -> unit
(** A restarted primary's sequencing state is stale: hold every batch
    until a view install re-establishes it. No-op on backups. *)

val start :
  ?on_blame:(unit -> unit) ->
  'a t ->
  stalled:(unit -> (Rcc_common.Ids.round * Rcc_sim.Engine.time) option) ->
  unit
(** Arm the watchdog. Every [timeout / 2], starting one [timeout] after
    the call, it asks [stalled] for the round blocking progress and the
    time it has blocked since, and past [timeout] calls
    {!detect_failure} for it. *)

val on_checkpoint :
  'a t ->
  src:Rcc_common.Ids.replica_id ->
  seq:Rcc_common.Ids.round ->
  digest:string ->
  unit
(** Count a CHECKPOINT vote ({!Checkpointing.on_vote}). *)

val fast_forward : 'a t -> proof:Rcc_storage.Checkpoint_store.proof -> unit
(** Jump the log past an installed snapshot, adopt its checkpoint proof,
    and keep a lagging primary from re-proposing rounds it covers. *)

val log_stats : 'a t -> int * int
val checkpoint_log : 'a t -> Rcc_storage.Checkpoint_store.t
