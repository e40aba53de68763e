(** The binary format every persisted or transmitted structure shares:
    big-endian u64 ints, u64-length-prefixed strings, u64-count-prefixed
    lists and 0/1 flag bytes. The wire codec, the ledger file, snapshots
    and the journal are all built from these primitives.

    Reading is bounded. A {!reader} never looks past its [limit]; the
    check is written so that a forged length cannot overflow it; every
    length and count is checked against a caller-given maximum; and
    every violation raises {!Malformed}, which {!decode} turns into an
    [Error].

    Writing is exact-size. A caller sums the size helpers into one
    [Bytes.t], and each [put_*] stores at an offset and returns the
    offset just past what it wrote. A whole record is therefore encoded
    in one pass, with no intermediate buffer and no allocation. The
    offset is the last argument, so writes chain with [|>]:
    [put_int b round off |> put_string b digest]. *)

exception Malformed of string

(** {2 Reader} *)

type reader = { buf : string; mutable pos : int; limit : int }
(** Reads [buf] from [pos] up to [limit] (exclusive). *)

val reader : string -> pos:int -> limit:int -> reader

val need : reader -> int -> unit
(** [need r n] raises unless [n >= 0] and at least [n] bytes remain. *)

val skip : reader -> int -> unit
val int : reader -> int
val byte : reader -> char

val bool : reader -> bool
(** A 0x00 or 0x01 byte. *)

val count : reader -> max:int -> string -> int
(** [count r ~max what] reads an int in [[0, max]]; otherwise raises
    [Malformed ("bad " ^ what)]. *)

val string : reader -> max:int -> string
(** A length-prefixed string of at most [max] bytes. *)

val int_list : reader -> max:int -> int list
(** A count-prefixed list of at most [max] ints. *)

val magic : reader -> string -> unit
(** Consumes exactly the given bytes, or raises [Malformed "bad magic"]. *)

val finish : reader -> unit
(** Raises [Malformed "trailing bytes"] unless the reader is at [limit]. *)

val decode : (reader -> 'a) -> string -> ('a, string) result
(** Runs a reader over the whole string. [Error] if it raises
    {!Malformed} or leaves bytes unread. *)

(** {2 Writer} *)

val string_size : string -> int
(** Bytes {!put_string} writes. *)

val int_list_size : int list -> int
(** Bytes {!put_int_list} writes. *)

val put_int : Bytes.t -> int -> int -> int
val put_byte : Bytes.t -> char -> int -> int
val put_bool : Bytes.t -> bool -> int -> int

val put_raw : Bytes.t -> string -> int -> int
(** The string's bytes, without a length prefix. *)

val put_string : Bytes.t -> string -> int -> int

val put_ints : Bytes.t -> int list -> int -> int
(** The ints, without a count prefix. *)

val put_int_list : Bytes.t -> int list -> int -> int
