(** Key material for a replicated service (§6 "Cryptographic Constructs").

    One keychain holds, for a service with [n] replicas and [clients]
    clients, an ED25519-style signing pair per replica and per client, all
    derived deterministically from a seed. The paper's replica-to-replica
    CMAC-AES tags are modeled by their CPU cost alone (the simulator's
    [Costs.mac_gen] / [Costs.mac_verify]), so no MAC keys are kept. *)

type t

val create : seed:int -> n:int -> clients:int -> t

val n : t -> int

val replica_secret : t -> Rcc_common.Ids.replica_id -> Signature.secret_key
val replica_public : t -> Rcc_common.Ids.replica_id -> Signature.public_key
val client_secret : t -> Rcc_common.Ids.client_id -> Signature.secret_key
val client_public : t -> Rcc_common.Ids.client_id -> Signature.public_key
