(** Ledger persistence: a self-describing binary file format for the
    blockchain, so a replica can archive its chain and an auditor can
    reload and re-validate it offline.

    Layout, in {!Rcc_common.Wire} framing: magic "RCCL1\n", the initial
    primary list, the block count, then one {!Block.write} record per
    block. [save] sizes the file first and encodes it into one buffer.
    [load] rejects bad magic, truncation, oversized fields, trailing
    bytes and any chain whose hashes do not re-validate. *)

val save : Ledger.t -> primaries:Rcc_common.Ids.replica_id list -> string
(** Serialize the whole chain (with the genesis parameters needed to
    re-derive the genesis hash). *)

val load : string -> (Ledger.t, string) result
(** Parse and re-validate. The returned ledger is ready for appends. *)

val save_file : Ledger.t -> primaries:Rcc_common.Ids.replica_id list -> path:string -> unit
val load_file : path:string -> (Ledger.t, string) result
