(** XXH64 (seed 0): the journal's 8-byte disk checksum.

    A non-cryptographic 64-bit hash. The disk's faults are random tears,
    flips and lost writes, and nothing adversarial writes to a replica's
    own disk, so the checksum only has to catch random damage: a 64-bit
    hash misses it with probability 2{^-64}, the same as a SHA-256 cut to
    8 bytes, at a small fraction of the cost. Everything attested or
    signed stays {!Rcc_crypto.Sha256}.

    The streaming form hashes pieces as one stream: any split of the
    same bytes gives the same value. *)

type t

val create : unit -> t

val reset : t -> unit
(** Start a new stream on [t]. *)

val update_sub : t -> string -> int -> int -> unit
(** [update_sub t s off len] absorbs [String.sub s off len] without
    copying it. Raises [Invalid_argument] if the range is not inside [s]. *)

val update : t -> string -> unit

val finalize : t -> int64
(** The hash of everything absorbed since [create] or [reset]. Leaves
    [t] unchanged. *)

val digest : string -> int64
(** One-shot hash of a whole string. *)
