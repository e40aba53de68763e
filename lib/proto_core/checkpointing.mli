(** PBFT's stable / provable-stable checkpoint logic, lifted out of the
    instance so any protocol with a gap-free accept frontier can reuse it.

    A checkpoint at round [s] is {e provable} once [f+1] replicas voted
    for it (at least one honest), and becomes {e stable} locally only
    once this replica has itself accepted through [s] — a replica kept in
    the dark must not garbage-collect rounds it never executed. Stable
    proofs are recorded in a {!Rcc_storage.Checkpoint_store.t}.

    The caller owns the slot log and passes it in: its accept frontier is
    the executed prefix, and whenever a call makes a round [s] stable this
    module collects the log's slots below [s] and then calls the caller's
    [on_stable ~seq:s]. *)

type t

val create : n:int -> f:int -> interval:int -> unit -> t
(** [interval <= 0] disables checkpoint scheduling ({!due} is [None]). *)

val stable : t -> Rcc_common.Ids.round
(** The stable checkpoint round; -1 initially. *)

val log : t -> Rcc_storage.Checkpoint_store.t
(** The proofs recorded as checkpoints became stable. *)

val due : t -> 'a Slot_log.t -> Rcc_common.Ids.round option
(** The checkpoint boundary the caller should announce (broadcast a
    CHECKPOINT vote for), if the log's accepted prefix has crossed one
    that is not yet stable. *)

val announce :
  t ->
  'a Slot_log.t ->
  env:Rcc_replica.Instance_env.t ->
  digest:('a Slot_log.slot -> string) ->
  unit
(** Broadcast the CHECKPOINT vote {!due} names, if any: its digest is
    [digest] of the log's slot at that round, [""] when the slot is
    gone. Each protocol picks what it vouches for (a batch digest, a
    chained history). *)

val on_vote :
  t ->
  'a Slot_log.t ->
  src:Rcc_common.Ids.replica_id ->
  seq:Rcc_common.Ids.round ->
  digest:string ->
  on_stable:(seq:Rcc_common.Ids.round -> unit) ->
  unit
(** Count a CHECKPOINT vote (double votes ignored; the first digest seen
    per round wins). If this vote made a round stable, collect the slots
    below it and report it through [on_stable]. *)

val try_stabilize :
  t -> 'a Slot_log.t -> on_stable:(seq:Rcc_common.Ids.round -> unit) -> unit
(** Adopt the provable-stable checkpoint once the log's accept frontier
    has caught up with it (call after the frontier advances), collecting
    and reporting it like {!on_vote}. *)

val install : t -> Rcc_storage.Checkpoint_store.proof -> unit
(** Adopt a checkpoint installed via state transfer: record the
    transferred (f+1-attested) proof and prune votes and digests it
    covers. Stale proofs (at or below the current stable round) are
    ignored. The caller should [Slot_log.fast_forward] its log to the
    proof's round. *)
