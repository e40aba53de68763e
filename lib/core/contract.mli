(** Recovery contracts (§3.4.3).

    A contract for round [r] carries, per instance, the request replicated
    in [r] together with the accept proof (the replicas backing the
    prepare/commit certificate). Sending contracts on collusion detection
    is optimistic recovery; sending them every round is pessimistic
    recovery. *)

type t = {
  round : Rcc_common.Ids.round;
  entries : Rcc_messages.Msg.contract_entry list;
}

val build :
  round:Rcc_common.Ids.round ->
  accepted:(Rcc_common.Ids.instance_id ->
           (Rcc_messages.Batch.t * int list) option) ->
  z:int ->
  t
(** Collect this replica's accepted batches for [round] across all [z]
    instances; instances this replica did not complete are absent (other
    replicas' contracts cover them). *)

val to_msg : t -> Rcc_messages.Msg.t

val of_msg : Rcc_messages.Msg.t -> t option

val validate : t -> n:int -> min_cert:int -> (unit, string) result
(** Structural check: instances in range and each entry's proof backed by
    at least [min_cert] distinct replicas (a certifier named twice counts
    once). PBFT-backed instances use [min_cert = n - 2f] (the non-faulty
    majority any accepted request must reach, requirement R1);
    speculative instances carry thinner proofs: MultiZ's [min_cert = 2]
    takes a backup's [[primary; self]] but not a primary's own
    [[p; p]]. *)

val size : t -> int
(** Wire size (≈175 KB for the paper's 32-replica, batch-100 setup). *)
