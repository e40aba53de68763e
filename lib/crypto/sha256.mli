(** SHA-256 (FIPS 180-4), implemented from scratch.

    Used for message digests, the blockchain hash links, and as the
    compression function of {!Hmac}: everything attested or signed. The
    journal's disk checksums are not SHA-256 (see [Rcc_journal.Xxh64]).
    Verified against the FIPS test vectors in the test suite. *)

type ctx

val init : unit -> ctx
val update : ctx -> string -> unit

val update_sub : ctx -> string -> int -> int -> unit
(** [update_sub ctx s off len] absorbs [String.sub s off len] without
    copying it. Raises [Invalid_argument] if the range is not inside [s]. *)

val finalize : ctx -> string
(** 32-byte binary digest. The context must not be reused afterwards. *)

val digest : string -> string
(** One-shot digest of a full message. Messages of at most {!memo_limit}
    bytes go through a memo of recent inputs: the simulated replicas of
    one cluster hash the same short inputs (block hashes, result digests,
    history links, permutation seeds), and all but the first get the
    digest the first computed. The returned string may therefore be
    shared with other callers: never mutate it (no
    [Bytes.unsafe_of_string] on a digest that is then written). The
    memo copies each key, so hashing a buffer that is later mutated and
    hashed again is safe; every digest equals the kernel's. *)

val digest_list : string list -> string
(** Digest of the concatenation, without materializing it beyond
    {!memo_limit} bytes; memoized and shared like {!digest}. *)

val memo_limit : int
(** The longest input, in bytes, that {!digest} and {!digest_list}
    memoize. *)

val memo_slot : string -> int option
(** The memo slot an input of at most {!memo_limit} bytes maps to, for
    tests that force collisions; [None] for longer inputs. *)

val compressions : unit -> int
(** 64-byte compressions run since the program started, by every entry
    point (HMAC included): the exact hash work, counted with one
    increment per block. A memo hit runs none. *)

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
