(** Byzantine behaviour specifications for experiments.

    A spec describes how a replica misbehaves *when it is a primary* and
    whether it emits false view-change accusations. Honest replicas use
    {!honest}. The attack of the paper's Example 3.3 / Figure 12 is a
    combination: a malicious primary keeps selected replicas in the dark
    while the remaining byzantine replicas blame non-faulty primaries. *)

open Rcc_common.Ids

type dark = {
  victims : replica_id list;  (** replicas excluded from proposals *)
  from_round : round;  (** first affected round *)
  until_round : round option;  (** [Some r]: last affected round; [None]: forever *)
}

type t = {
  mutable byzantine : bool;
  mutable dark : dark option;
  (** As a primary, exclude [victims] from proposals in the round span. *)
  mutable false_blame : replica_id list;
  (** Send view-change messages blaming these (non-faulty) primaries when
      prompted (fig. 12 false-alarm attack). *)
  mutable ignore_clients : bool;
  (** As a primary, silently drop client requests (§3.6 denial of
      service; resolved by instance-change). *)
  mutable equivocate : bool;
  (** As a primary, propose conflicting batches to different halves of
      the backups; honest replicas must never accept either. *)
  mutable forge_views : bool;
  (** Broadcast forged {!Rcc_messages.Msg.View_sync} messages claiming
      inflated views with self as primary, backed by fabricated
      certificates. Honest coordinators must reject them: the votes
      cannot verify under the claimed accusers' keys. *)
  mutable corrupt_snapshot : bool;
  (** As a state-transfer donor, serve bit-flipped snapshot payloads.
      Requesters must reject them by digest and recover from another
      donor. *)
  mutable forge_contracts : bool;
  (** Answer every CONTRACT-REQUEST with the true window, but with each
      batch replaced by a null batch and every other replica named as
      certifier. Honest requesters must adopt no entry on this replica's
      word alone. *)
}
(** Fields are mutable so the chaos nemesis can flip a replica's behaviour
    mid-run; a replica reads its spec on every decision. Share one record
    per replica — mutate through {!set}, never the {!honest} constant
    (give each replica its own {!copy}). *)

val honest : t

val dark_primary :
  victims:replica_id list -> ?from_round:round -> ?until_round:round -> unit -> t

val false_blamer : blames:replica_id list -> t

val client_ignorer : t

val equivocator : t

val view_forger : t

val snapshot_corruptor : t

val contract_forger : t

val copy : t -> t

val set : t -> t -> unit
(** [set dst src] overwrites [dst]'s behaviour with [src]'s in place, so
    every closure holding [dst] sees the change. *)

val excludes : t -> round:round -> replica_id -> bool
(** [excludes spec ~round victim] — should a primary with this spec omit
    [victim] from its round-[round] proposal? *)
