(** Byte-string helpers used by the crypto layer and wire encoding. *)

val hex : string -> string
(** Lowercase hex encoding. *)

val of_hex : string -> string
(** Inverse of {!hex}. Raises [Invalid_argument] on malformed input. *)

val xor : string -> string -> string
(** Byte-wise xor of equal-length strings. *)

val put_u32be : bytes -> int -> int32 -> unit
val put_u64be : bytes -> int -> int64 -> unit
val get_u64be : string -> int -> int64

val u64_string : int64 -> string
(** Big-endian 8-byte encoding. *)
