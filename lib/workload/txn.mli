(** Client transactions: single-key YCSB operations. *)

type op =
  | Read
  | Write of int  (** value to store *)

type t = { key : int; op : op }

val encode : t -> string
(** Compact binary encoding (24 bytes): key, op tag (0 read, 1 write) and
    value (0 for a read), each a big-endian 64-bit field. The input to
    batch digests and the wire codec. *)

val encode_into : Bytes.t -> int -> t -> unit
(** Write the 24-byte encoding at the given offset — the allocation-free
    form of {!encode} used when encoding whole batches. *)

val encoded_size : int

(** {2 The encoded form in place}

    Readers of one encoding at [off] inside a string, for batches that
    keep their transactions only as bytes. They assume the encoding is
    canonical (written by {!encode_into}, or accepted by {!check_at}). *)

val key_at : string -> int -> int

val is_write_at : string -> int -> bool

val apply_at : Rcc_storage.Kv_store.t -> string -> int -> int
(** {!apply} of the encoded transaction at [off], allocation-free. *)

val decode_at : string -> int -> t

val check_at : string -> int -> unit
(** Accept the 24 bytes at [off] iff {!encode_into} writes them for some
    transaction, else raise {!Rcc_common.Wire.Malformed}: an unknown op
    tag, a read with a non-zero value field, or a key or value outside
    OCaml's 63-bit ints (which would not re-encode to the same bytes).
    The caller bounds [off + 24]. *)

val wire_size : int
(** Bytes one transaction occupies inside a request batch. Calibrated so a
    100-transaction PRE-PREPARE is 5400 bytes as reported in §7.2. *)

val apply : Rcc_storage.Kv_store.t -> t -> int
(** Execute against the store; returns the read value or the written
    value. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
