(** Serialized replica state for checkpoint-backed state transfer.

    A snapshot at boundary [seq] is the state after executing rounds
    [0, seq): the ledger prefix (whose hash chain pins every byte of it),
    the materialized key-value table in canonical order, and the
    duplicate-reply cache. A lagging replica installs one wholesale
    instead of replaying the gap round by round — O(gap) bytes, not
    O(gap) consensus rounds.

    Verification argument: the requester learns [(seq, head, kv_digest)]
    from f+1 matching snapshot offers, so at least one correct replica
    attested them. {!verify} recomputes the chain head from the genesis
    parameters and the blob's own blocks; a forged or corrupted prefix
    cannot reach the attested head without breaking SHA-256. The KV
    section is pinned separately by {!kv_digest} because certificate
    digests and primaries are excluded from block identity, so the chain
    alone does not commit to it byte-for-byte. The reply cache is
    unattested, yet it does affect agreed state: it decides whether a
    batch ordered again executes or is skipped as a duplicate. Its
    entries carry no batch id, so the installer cannot rebuild which
    batches the donor has already settled past eviction.

    Layout, in {!Rcc_common.Wire} framing: magic "RCCS1\n", [seq], the
    block count and one {!Block.write} record per block, a KV flag byte
    (then the triple count and each triple as three u64s), the reply
    count and per entry client, digest, round and result. {!decode}
    bounds every count and length: 10 000 000 blocks, replies and bytes
    per reply string, 100 000 000 KV triples.

    Two forms hold the state. The decoded {!t} boxes each triple; it is
    what {!decode} returns and what an installer applies. A captured
    {!boundary} holds the KV section already encoded, the triples' exact
    bytes in the layout above ({!kv_section}), so serving or persisting
    it copies or splices that string and never re-encodes the table. *)

type replied =
  (Rcc_common.Ids.client_id * string * Rcc_common.Ids.round * string) list
(** duplicate-reply cache entries
    [(client, batch digest, round, result digest)] *)

type t = {
  seq : Rcc_common.Ids.round;  (** state after rounds [< seq] *)
  blocks : Block.t array;  (** ledger prefix, rounds [0, seq) *)
  kv : (int * int * int) array option;
      (** [(key, value, version)] in {!Kv_store.entries} canonical order;
          [None] when the serving replica does not materialize state *)
  replied : replied;
}

val kv_section : (int * int * int) array -> string
(** The KV section's triples as {!encode} writes them: key, value and
    version as three big-endian u64s, 24 bytes per triple. *)

val capture_kv : Kv_store.t -> string
(** {!kv_section} of {!Kv_store.entries}, encoded straight from the
    store's columns: no triple is boxed. *)

val kv_digest : (int * int * int) array option -> string
(** Digest over the triples' {!kv_section}; [""] for [None]. This is the
    value a captured {!boundary} attests and {!Msg.Snapshot_reply}
    carries as [sp_kv]. *)

type boundary = private {
  b_seq : Rcc_common.Ids.round;  (** state after rounds [< b_seq] *)
  b_head : string;  (** ledger head hash at the boundary *)
  b_kv : string option;
      (** the encoded KV section ({!kv_section}, canonical order);
          [None] when state is not materialized. A donor serves these
          bytes and the journal splices them into its slot, so the table
          is held once, encoded, however many readers share it. *)
  b_kv_digest : string Lazy.t;
      (** {!kv_digest} of the triples [b_kv] encodes, hashed straight
          from the section and computed on first use: offers are rare,
          and digesting the table at every boundary would tax the
          fault-free hot path for nothing *)
}
(** One checkpoint boundary, captured once by the execute stage the
    moment execution settles on it. State transfer serves it and the
    durable journal persists it, so any two honest replicas capturing
    the same boundary vouch for identical bytes. The ledger prefix and
    duplicate-reply cache are not part of it: donors read them at serve
    time. *)

val boundary :
  seq:Rcc_common.Ids.round -> head:string -> kv:string option -> boundary
(** Raises [Invalid_argument] when [kv] is not a whole number of
    triples. *)

val chain_head : primaries:Rcc_common.Ids.replica_id list -> Block.t array ->
  (string, string) result
(** Head hash a standalone chain pins, walking it from the genesis
    derived from [primaries]; [Error] when rounds or links are broken. *)

val encode_boundary : boundary -> blocks:Block.t array -> replied:replied -> string
(** The state at a boundary in one exact-size buffer, its KV section
    copied in as it is, never re-encoded: what a donor serves. *)

val encode : t -> string
(** {!encode_boundary} of a decoded snapshot: its triples become a KV
    section first. For tests and tools; donors serve boundaries. *)

val encode_around_kv :
  header:int -> boundary -> blocks:Block.t array -> replied:replied ->
  Bytes.t * int
(** {!encode_boundary}'s bytes with [header] bytes reserved in front for
    the caller and the KV section's triples left out; returns the buffer
    and the offset where [b_kv] belongs. The journal splices the
    boundary's string back in there rather than copying it. *)

val decode : string -> (t, string) result

val verify : primaries:Rcc_common.Ids.replica_id list -> t ->
  (string, string) result
(** Self-consistency check before install: the chain covers exactly
    [seq] rounds and links end to end. Returns the resulting head hash
    for comparison against the attested one. *)
