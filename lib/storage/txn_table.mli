(** Side table of executed requests and responses, indexed by round
    (the ledger stores proofs, not payloads — §6): flat columns with
    one cell per (round, instance), so a round's rows need no sort and
    a rollback visits only the rounds it drops. *)

type entry = {
  round : Rcc_common.Ids.round;
  instance : Rcc_common.Ids.instance_id;
  client : Rcc_common.Ids.client_id;
  batch_digest : string;
  response_digest : string;
  txn_count : int;
}

type t

val create : z:int -> t
(** A table for rounds of [z] instances. *)

val record : t -> entry -> unit
(** Add the row of [(entry.round, entry.instance)], replacing any row
    already recorded there (the execute stage records each once).
    @raise Invalid_argument if the round is negative or the instance
    is outside [\[0, z)]. *)

val find : t -> round:Rcc_common.Ids.round -> entry list
(** Entries of a round, in instance order. *)

val remove_from : t -> round:Rcc_common.Ids.round -> int * int
(** Drop every entry of rounds [>= round] (speculative rollback).
    Returns [(rounds_removed, txns_removed)]. *)

val total_txns : t -> int
val rounds : t -> int
