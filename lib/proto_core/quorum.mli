(** Vote accounting for one decision point of a protocol instance.

    Wraps a replica-indexed bitset with the threshold arithmetic every
    instance was hand-rolling: [2f+1] (BFT quorum), [f+1] (at least one
    honest voter), [n/2+1] (crash-fault majority) and [n-f] (HotStuff
    optimistic quorum). [vote] rejects double votes: a replica's second
    vote for the same decision changes nothing and reports [false]. *)

type t

val create : n:int -> f:int -> t

val vote : t -> Rcc_common.Ids.replica_id -> bool
(** Count [src]'s vote; [true] iff it was not already counted. *)

val mem : t -> Rcc_common.Ids.replica_id -> bool
val count : t -> int
val clear : t -> unit

val to_list : t -> Rcc_common.Ids.replica_id list
(** The voters, ascending — the accept certificate. *)

val quorum_2f1 : t -> int
val majority : t -> int

val reached : t -> int -> bool
(** [reached t k] — at least [k] distinct votes counted. *)

val has_quorum : t -> bool
(** At least [2f+1] votes. *)

val has_weak : t -> bool
(** At least [f+1] votes — one of them honest. *)

val has_majority : t -> bool
(** At least [n/2+1] votes (crash-fault protocols). *)

val has_all_but_f : t -> bool
(** At least [n-f] votes (HotStuff-style optimistic quorum). *)

(** Keyed vote tables (view-change votes per target view, checkpoint
    votes per round): find-or-create plus pruning of decided keys. *)
module Tally : sig
  type quorum := t
  type t

  val create : n:int -> f:int -> t

  val votes : t -> int -> quorum
  (** The quorum tracked under [key], created empty on first use. *)

  val find_opt : t -> int -> quorum option

  val prune : t -> upto:int -> unit
  (** Drop every key [<= upto]. *)
end
