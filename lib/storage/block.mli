(** Blocks of the RESILIENTDB ledger (§6 "Storage and Ledger Management").

    A block commits one RCC round: per-instance proof-of-replication
    digests, the primaries of the round, and the clients served. Client
    requests and responses live in a separate table ({!Txn_table}) indexed
    by round, exactly as in the paper. *)

type proof = {
  instance : Rcc_common.Ids.instance_id;
  batch_digest : string;  (** digest of the replicated request batch *)
  certificate_digest : string;
      (** the prepare/commit certificate's digest, modeled by its size
          only: executed blocks carry {!certificate_placeholder} *)
}

type t = {
  round : Rcc_common.Ids.round;
  prev_hash : string;
  proofs : proof list;  (** one per instance that replicated in the round *)
  primaries : Rcc_common.Ids.replica_id list;
  clients : Rcc_common.Ids.client_id list;
}

val certificate_placeholder : string
(** 32 zero bytes, shared by every proof the execute stage builds. No
    code compares or verifies a certificate digest, and {!hash} leaves it
    out, so only its size matters: it keeps stored records, journal
    records and snapshots at the size of a real SHA-256 digest. *)

val genesis_hash : primaries:Rcc_common.Ids.replica_id list -> string
(** B_G := H(P_1, ..., P_z). *)

val hash : t -> string
(** Hash of {!encode}. Covers the agreed content (round, chain link,
    ordered batch digests, clients) but neither the certificate digests,
    which vary across replicas with the particular 2f+1 quorum each one
    observed, nor the primaries, which replicas racing a primary
    replacement install at different rounds of their execution stream. *)

val encode : t -> string
(** The hash preimage: round, previous hash, each proof's instance and
    batch digest, the clients — fixed-width or fixed-length fields with
    no length prefixes. *)

(** {2 Stored record}

    The full block, as {!Snapshot}s store it:
    round, previous hash, the proofs (instance and both digests), the
    primaries and the clients, in {!Rcc_common.Wire} framing. *)

val record_size : t -> int
(** Exact length of the record {!write} emits. *)

val write : Bytes.t -> t -> int -> int
(** [write buf b off] stores [b]'s record at [off] and returns
    [off + record_size b]. *)

val read : Rcc_common.Wire.reader -> t
(** Parse one record: strings of at most 10 000 000 bytes, at most
    100 000 proofs and 1 000 000 primaries or clients. Raises
    {!Rcc_common.Wire.Malformed}. *)

val pp : Format.formatter -> t -> unit
