(** Client request batches.

    A batch is one client's request: an ordered array of transactions, a
    SHA-256 digest over their encoding, and the client's signature over the
    digest (§6 "Batching"). Batches are the unit of consensus. *)

type key_sets = {
  rset : int array;  (** keys read, ascending, deduplicated *)
  wset : int array;  (** keys written, ascending, deduplicated *)
}
(** A batch's YCSB key footprint, the input to conflict analysis
    (two batches commute iff neither writes a key the other touches). *)

type t = {
  id : int;  (** globally unique request identifier *)
  client : Rcc_common.Ids.client_id;
  txns : Rcc_workload.Txn.t array;
  digest : string;  (** SHA-256 over the encoded transactions *)
  signature : Rcc_crypto.Signature.signature;  (** client's, over the digest *)
  wire : int;
      (** cached {!wire_size} of [txns] — [Msg.size] queries it on every
          send, so it is computed once at construction *)
  mutable keys : key_sets option;
      (** cached {!key_sets}, computed on first use; serial execution
          never touches it *)
  mutable payload : string;
      (** cached {!payload}, [""] until first use; only the journal uses
          it *)
  seal_txns : Rcc_workload.Txn.t array;
  seal_digest : string;
      (** the [(txns, digest)] pair {!create} hashed. {!verify} skips the
          hash when both fields are still physically this pair. *)
}
(** Like [keys] and [payload], a batch with other transactions is built
    with {!create} or {!of_parts}, never as [{b with txns}]: the caches
    would still describe [b]'s transactions. *)

val create :
  id:int ->
  client:Rcc_common.Ids.client_id ->
  txns:Rcc_workload.Txn.t array ->
  secret:Rcc_crypto.Signature.secret_key ->
  t

val of_parts :
  id:int ->
  client:Rcc_common.Ids.client_id ->
  txns:Rcc_workload.Txn.t array ->
  digest:string ->
  signature:Rcc_crypto.Signature.signature ->
  t
(** A batch read back from bytes (codec, journal). It is not sealed:
    {!verify} recomputes its digest. *)

val null : round:Rcc_common.Ids.round -> t
(** The no-op batch a new primary proposes to fill a hole left by its
    predecessor (client is {!null_client}, no transactions). *)

val null_client : Rcc_common.Ids.client_id
(** Sentinel (-1): responses are not sent for null batches. *)

val is_null : t -> bool

val digest_of_txns : Rcc_workload.Txn.t array -> string
(** SHA-256 over the concatenated {!Rcc_workload.Txn.encode_into} bytes,
    i.e. over {!payload}. *)

val key_sets : t -> key_sets
(** The batch's read/write key sets, sorted ascending and deduplicated;
    computed on first use and cached in the record. *)

val payload : t -> string
(** The encoded transactions, the exact bytes [digest] covers; computed on
    first use and cached in the record. *)

val verify : t -> public:Rcc_crypto.Signature.public_key -> bool
(** Check that the digest covers the transactions and the client signed
    it. The digest is recomputed unless the record is sealed. *)

val size : t -> int
(** The cached [wire] field. *)

val wire_size : ntxns:int -> int
(** Bytes a batch occupies inside a message; 100 transactions give the
    paper's 5000-byte batch payload. *)

(** {2 Binary record}

    The one layout of a batch inside codec messages and journal round
    records: id, client, txn count, the encoded transactions
    ({!payload}), then digest and signature as length-prefixed strings
    ({!Rcc_common.Wire}). *)

val encoded_size : t -> int
(** Exact length of the record {!write} emits; does not encode the
    transactions. *)

val write : Bytes.t -> t -> int -> int
(** [write buf t off] stores [t]'s record at [off] and returns
    [off + encoded_size t]. The transactions are copied from the
    {!payload} cache when it is filled and encoded in place otherwise;
    [write] never fills it, so a writer that wants the encoding shared
    calls {!payload} first. *)

val payload_offset : int
(** Where the encoded transactions start inside a record: 24 bytes in. *)

val framing_size : t -> int
(** {!encoded_size} less the encoded transactions. *)

val write_framing : Bytes.t -> t -> int -> int
(** {!write} with the encoded transactions cut out: stores
    [framing_size t] bytes at [off]. A writer that keeps {!payload} by
    reference splices it back at [off + payload_offset] to get the
    record {!write} emits. *)

val read : Rcc_common.Wire.reader -> t
(** Parse one record into an unsealed batch ({!of_parts}). At most
    1 000 000 transactions; raises {!Rcc_common.Wire.Malformed}. *)

type span = {
  p_off : int;  (** offset of the encoded transactions *)
  p_len : int;  (** their length, 0 for a batch without transactions *)
  d_off : int;  (** offset of the digest's bytes *)
  d_len : int;  (** the digest's length *)
}

val span : Rcc_common.Wire.reader -> span
(** Skip one record without decoding a transaction, returning where its
    payload and its digest lie, so a caller can check that one hashes to
    the other. Raises {!Rcc_common.Wire.Malformed} where {!read} would. *)
