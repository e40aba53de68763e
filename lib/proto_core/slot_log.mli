(** The round-indexed slot store every protocol instance keeps.

    A slot carries the machinery common to all instances — the proposed
    batch, its digest, the accepted flag, and the creation time the
    watchdog blames from — plus a protocol-specific ['a state] (PBFT's
    prepare/commit quorums, CFT's ack quorum, Zyzzyva's chained history,
    HotStuff's phase votes), built by the [init] callback on first touch.

    The log tracks two watermarks. [max_seen] is the highest round with
    any activity. [frontier] is the accept frontier: every round
    [<= frontier] has been accepted (PBFT's [exec_upto]; Zyzzyva's
    [next_accept - 1]; HotStuff's [next_decide - 1]). [drain] advances it
    in strict round order, which is what gives RCC its per-instance
    gap-free prefix (requirement R4, §3.3). *)

type 'a slot = {
  round : Rcc_common.Ids.round;
  mutable batch : Rcc_messages.Batch.t option;
  mutable digest : string option;
  mutable accepted : bool;
  created_at : Rcc_sim.Engine.time;
  state : 'a;  (** protocol-specific per-slot state *)
}

type 'a t

val create :
  ?tag:int * int ->
  engine:Rcc_sim.Engine.t ->
  init:(Rcc_common.Ids.round -> 'a) ->
  unit ->
  'a t
(** [tag] is the [(replica, instance)] identity stamped on the log's
    trace events (slot-propose on first touch, checkpoint collection);
    default [(-1, -1)]. *)

val get : 'a t -> Rcc_common.Ids.round -> 'a slot
(** The slot for [round], created (and [max_seen] bumped) on first use. *)

val find_opt : 'a t -> Rcc_common.Ids.round -> 'a slot option
val remove : 'a t -> Rcc_common.Ids.round -> unit

val max_seen : 'a t -> Rcc_common.Ids.round
(** Highest round with any activity; -1 initially. *)

val frontier : 'a t -> Rcc_common.Ids.round
(** Highest round of the gap-free accepted prefix; -1 initially. *)

val drain : 'a t -> accept:('a slot -> bool) -> bool
(** Walk slots upward from [frontier + 1] while [accept] grants each one,
    advancing the frontier past every granted slot. [accept] may perform
    the protocol's accept side effects (report upward, chain a history
    digest) before granting. Stops at the first missing or refused slot;
    [touch]es the log iff the frontier moved. Returns whether it moved. *)

val oldest_incomplete :
  'a t -> (Rcc_common.Ids.round * Rcc_sim.Engine.time) option
(** The oldest round blocking the frontier, with the time it has been
    stalled since: a slot with partial evidence blames from its creation
    time; a round never heard of at all (replica kept in the dark) falls
    back to the last recorded progress ({!touch}). *)

val touch : 'a t -> unit
(** Record progress now (accept, view install) for watchdog blaming. *)

val gc_upto : 'a t -> Rcc_common.Ids.round -> unit
(** Drop every slot [<= min upto (frontier t)] (rounds covered by a
    stable checkpoint). The clamp means a caller can never collect
    not-yet-accepted rounds, which would otherwise be re-reported as
    incomplete by {!oldest_incomplete}. *)

val fast_forward : 'a t -> round:Rcc_common.Ids.round -> unit
(** Jump past an installed snapshot: collect every slot [< round] and
    move the accept frontier to [round - 1] (the transferred state covers
    those rounds, so nothing below is incomplete anymore). Slots at or
    above [round] survive. No-op when the frontier is already there. *)

val unwind : 'a t -> round:Rcc_common.Ids.round -> unit
(** Speculative rollback retracts: mark every accepted slot from [round]
    up to the accept frontier unaccepted and move the frontier back to
    [round - 1]. Each slot keeps its batch and [max_seen] stays, so the
    next {!drain} re-accepts the suffix, including orders re-accepted or
    buffered above [round] since an earlier rollback. The caller must
    only unwind above its garbage-collection boundary ([round >= base]);
    rounds below [round] are untouched. No-op when [round] is past the
    frontier. *)

val retained_slots : 'a t -> int
(** Live slots currently held (ring plus stale table) — the quantity
    checkpoint GC bounds. *)
