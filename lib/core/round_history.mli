(** Executed rounds retained for contract building (§3.4): for each
    round the execute thread has passed, every instance's batch and the
    replicas that certified it.

    A ring of [capacity] round slots; round [r] lives in slot
    [r mod capacity], so storing a round evicts the one [capacity]
    rounds before it and a round older than that is not served. The
    ring is stored as flat columns indexed by [slot * z + instance] —
    the batch pointer and the cert, plus one round per slot — and
    starts small: it doubles when a round lands on a slot held by a
    round the full-size ring would keep apart, up to [capacity]. *)

open Rcc_common.Ids

type t

val create : z:int -> capacity:int -> t
(** A ring of [max 16 capacity] rounds of [z] instances each. *)

val store : t -> round:round -> Rcc_replica.Acceptance.t array -> unit
(** Retain round [round] (>= 0): replaces whatever round held its slot.
    An instance with several acceptances keeps the first; instances
    outside [\[0, z)] are not retained. *)

val find :
  t -> round:round -> instance:instance_id -> (Rcc_messages.Batch.t * int list) option
(** The batch and cert stored for [(round, instance)], the cert exactly
    as it was stored. *)

val rollback : t -> frontier:round -> unit
(** Drop every round [>= frontier]; visits only those rounds' slots. *)

val slots : t -> int
(** Round slots allocated now. The ring starts at the capacity halved
    for as long as that leaves a whole number of at least 16 slots, and
    doubles on demand back up to the capacity. *)
