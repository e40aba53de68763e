(** Client transactions: single-key YCSB operations. *)

type op =
  | Read
  | Write of int  (** value to store *)

type t = { key : int; op : op }

val encode : t -> string
(** Compact binary encoding (24 bytes), input to batch digests and the
    wire codec. *)

val encode_into : Bytes.t -> int -> t -> unit
(** Write the 24-byte encoding at the given offset — the allocation-free
    form of {!encode} used when digesting whole batches. *)

val encoded_size : int

val read : Rcc_common.Wire.reader -> t
(** Parse the encoding written by {!encode}, raising
    {!Rcc_common.Wire.Malformed} on a truncated input or an unknown op
    tag. *)

val wire_size : int
(** Bytes one transaction occupies inside a request batch. Calibrated so a
    100-transaction PRE-PREPARE is 5400 bytes as reported in §7.2. *)

val apply : Rcc_storage.Kv_store.t -> t -> int
(** Execute against the store; returns the read value or the written
    value. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
