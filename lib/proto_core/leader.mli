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

    Takeover. Under RCC, a replica installed as primary stops proposing
    ([holding]), announces the view with an empty NEW-VIEW, asks its
    peers for the in-flight frontier (one CONTRACT-REQUEST for
    [frontier + 1]), and re-proposes only after a grace period of
    [timeout / 8], if it is still primary of that view and still
    holding. Standalone, it re-proposes at once, and its re-propose step
    announces the view. Completing the takeover clears [holding], moves
    [next_seq] past every round seen, runs the instance's re-propose step
    and flushes the held batches in submission order. *)

type 'a t = {
  env : Rcc_replica.Instance_env.t;
  log : 'a Slot_log.t;  (** the instance's slot log *)
  mutable view : Rcc_common.Ids.view;
  mutable primary : Rcc_common.Ids.replica_id;
  mutable next_seq : Rcc_common.Ids.round;  (** primary: next round to propose *)
  mutable holding : bool;
      (** hold submitted batches instead of proposing: set through a
          takeover's grace period, after [resign_primary], and by a PBFT
          replica running its own view change *)
  vc_votes : Quorum.Tally.t;  (** standalone view change: new view -> voters *)
  mutable vc_sent_for : Rcc_common.Ids.view;
      (** highest new view this replica voted for *)
  mutable last_failure_report : Rcc_common.Ids.round;  (** -1 if none *)
  ckpt : Checkpointing.t;
  held : Held_batches.t;
  mutable running : bool;  (** watchdog armed *)
}

val create : Rcc_replica.Instance_env.t -> 'a Slot_log.t -> 'a t
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
(** Broadcast a signed VIEW-CHANGE blaming the primary for [round],
    asking for view [view + 1]; standalone, count this replica's own
    vote. *)

val detect_failure :
  ?on_blame:(unit -> unit) -> 'a t -> round:Rcc_common.Ids.round -> unit
(** Blame the primary for [round] unless a round at or past it was
    already reported in this view: run [on_blame], broadcast the
    VIEW-CHANGE, and report the failure upward. *)

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
    prune the view-change votes. The new primary then takes over (see
    above); [finish] is its re-propose step and [propose] re-submits the
    held batches. *)

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
