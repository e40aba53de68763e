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

val validate : t -> n:int -> (unit, string) result
(** Structural check: instances non-negative, every entry at or above the
    contract's round, every named certifier a replica id. The certifier
    list stands for the accept proof's bytes on the wire; a receiver
    cannot verify it (replica messages carry MACs, which convince only
    their own receiver), so it decides nothing: trust comes from
    {!count}. *)

val size : t -> int
(** Wire size (≈175 KB for the paper's 32-replica, batch-100 setup). *)

(** {1 The f + 1 rule}

    An entry [(instance, round, batch digest)] is adopted once f + 1
    distinct responders, not counting this replica, have reported it:
    at least one of them is non-faulty. It is the rule state transfer
    applies to snapshot offers. A responder counts once per
    [(instance, round)], whatever certifiers it names; its latest report
    replaces its earlier one. *)

val window : int
(** 1 024 rounds: the most consecutive rounds one contract reply carries,
    and how far below or above the next round to execute the tally
    counts entries. *)

type tally

val tally :
  n:int -> f:int -> z:int -> self:Rcc_common.Ids.replica_id -> tally
(** An empty tally for replica [self]. It holds at most one vote per
    responder for each of the [2 * window * z] (instance, round) cells,
    so a flooding responder cannot grow it. *)

type counted = {
  adopted : (Rcc_messages.Msg.contract_entry * Rcc_common.Ids.replica_id list) list;
      (** the entries that stand at f + 1 or more responders after this
          contract, each with its witnesses, in contract order *)
  disputed : int;
      (** entries whose digest differs from one already reported for
          the same (instance, round) *)
}

val count :
  tally ->
  src:Rcc_common.Ids.replica_id ->
  next:Rcc_common.Ids.round ->
  t ->
  counted
(** Count [src]'s contract, which the caller validated; [next] is the
    next round this replica executes. Entries of instances outside
    [0, z), of rounds below [next - window] or at or above
    [next + window], and every entry from [self] or an out-of-range
    [src] are not counted. Votes for rounds the execute thread has passed
    are kept (a speculative conflict sits at or below the executed
    round) until they fall out of that span. *)
