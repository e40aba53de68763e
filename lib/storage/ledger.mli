(** An append-only blockchain of {!Block}s with hash-chain validation. *)

type t

val create : primaries:Rcc_common.Ids.replica_id list -> t
(** Starts from the genesis hash derived from the initial primaries. *)

val append : t -> Block.t -> (unit, string) result
(** Fails if the block's round is not the next round or its [prev_hash]
    does not match the current head. *)

val append_exn : t -> Block.t -> unit

val length : t -> int
(** Number of non-genesis blocks. *)

val head_hash : t -> string

val next_round : t -> Rcc_common.Ids.round

val get : t -> Rcc_common.Ids.round -> Block.t option

val validate : t -> (unit, string) result
(** Re-checks the whole hash chain. *)

val prefix : t -> upto:int -> Block.t array
(** The first [min upto (length t)] blocks, for serving a snapshot of the
    chain up to a checkpoint boundary. *)

val truncate_to : t -> round:Rcc_common.Ids.round -> unit
(** Drop every block at or above [round] (speculative rollback on a view
    change) and invalidate the cached head hash, so the next append
    chains from block [round - 1] (or genesis). No-op unless
    [0 <= round < length t]. *)

val install : t -> Block.t array -> unit
(** Replace the whole chain (state transfer install) and invalidate the
    cached head hash. The blocks must already chain from this ledger's
    genesis; callers verify with {!validate} / [Snapshot.chain_head]
    before installing. *)
