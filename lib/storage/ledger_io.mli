(** Ledger persistence: a self-describing binary file format for the
    blockchain, so a replica can archive its chain and an auditor can
    reload and re-validate it offline.

    Layout: magic "RCCL1\n", the initial primary list, the block count,
    then length-prefixed block records. [load] rejects bad magic,
    truncation, and any chain whose hashes do not re-validate. *)

val save : Ledger.t -> primaries:Rcc_common.Ids.replica_id list -> string
(** Serialize the whole chain (with the genesis parameters needed to
    re-derive the genesis hash). *)

val load : string -> (Ledger.t, string) result
(** Parse and re-validate. The returned ledger is ready for appends. *)

val save_file : Ledger.t -> primaries:Rcc_common.Ids.replica_id list -> path:string -> unit
val load_file : path:string -> (Ledger.t, string) result

(** Block-record framing, exposed so {!Snapshot} can embed a chain prefix
    inside its own format without a second encoder. Writers are
    exact-size: the caller sums {!block_size} (and its own fields) into
    one [Bytes.t] and every writer stores at an offset and returns the
    offset just past what it wrote, so a whole file or snapshot is
    encoded in one pass with no intermediate buffers. *)

exception Malformed of string

val put_int : Bytes.t -> int -> int -> int
(** [put_int buf off v] stores [v] as a big-endian u64 at [off]; returns
    [off + 8]. *)

val put_string : Bytes.t -> int -> string -> int
(** [put_string buf off s] stores [s] with a u64 length prefix; returns
    [off + 8 + String.length s]. *)

val block_size : Block.t -> int
(** Exact length of the block record {!write_block} emits. *)

val write_block : Block.t -> Bytes.t -> off:int -> int
(** [write_block b buf ~off] stores [b]'s record at [off] and returns
    [off + block_size b]. *)

val read_block : string -> pos:int -> Block.t * int
(** Parse one block record at [pos]; returns the block and the position
    just past it. Raises {!Malformed} on truncated or oversized fields. *)
