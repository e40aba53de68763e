(** HMAC-SHA256 (RFC 2104), built on {!Sha256}.

    Used as the core of the simulated digital signatures; verified against
    the RFC 4231 test vectors. *)

val mac : key:string -> string -> string
(** 32-byte binary tag. *)

val verify : key:string -> string -> tag:string -> bool

type keyed
(** Precomputed pad midstates for one key; macs under a [keyed] skip the
    per-call pad construction and pad-block hashing. *)

val derive : key:string -> keyed

val mac_keyed : keyed -> string list -> string
(** Tag over the concatenation of [parts]; [mac_keyed (derive ~key) [m]]
    = [mac ~key m]. *)

val verify_keyed : keyed -> string list -> tag:string -> bool
