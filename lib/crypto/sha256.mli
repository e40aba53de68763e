(** SHA-256 (FIPS 180-4), implemented from scratch.

    Used for message digests, the blockchain hash links, and as the
    compression function of {!Hmac}. Verified against the FIPS test
    vectors in the test suite. *)

type ctx

val init : unit -> ctx
val update : ctx -> string -> unit

val update_sub : ctx -> string -> int -> int -> unit
(** [update_sub ctx s off len] absorbs [String.sub s off len] without
    copying it. Raises [Invalid_argument] if the range is not inside [s]. *)

val finalize : ctx -> string
(** 32-byte binary digest. The context must not be reused afterwards. *)

val digest : string -> string
(** One-shot digest of a full message. *)

val digest_list : string list -> string
(** Digest of the concatenation, without materializing it. *)

val hex_digest : string -> string
(** Hex-encoded one-shot digest, for display and tests. *)

type midstate
(** Compression state after absorbing one full 64-byte block. *)

val block_midstate : string -> midstate
(** [block_midstate block] precomputes the state after hashing the
    64-byte [block]. Raises [Invalid_argument] on other lengths. *)

val digest_list_from : midstate -> string list -> string
(** [digest_list_from ms parts] = [digest_list (block :: parts)] where
    [ms = block_midstate block], without re-hashing the block. *)
