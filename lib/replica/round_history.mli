(** The execute stage's record of executed rounds: for each round the
    execute thread has committed, every instance's acceptance as it ran
    — the batch, the replicas that certified it and, for a speculative
    acceptance, its history digest. Contract building (§3.4) reads it,
    and a speculative rollback takes back the rounds it unwinds from it
    to re-buffer them.

    A ring of [capacity] round slots; round [r] lives in slot
    [r mod capacity], so storing a round evicts the one [capacity]
    rounds before it and a round older than that is not served — unless
    the evicted round is at or above the caller's [floor], the lowest
    round a rollback may still unwind: then the ring doubles instead and
    keeps both. The ring is stored as flat columns indexed by
    [slot * z + instance] — the batch pointer and the cert, plus one
    round per slot — and starts small: it doubles when a round lands on
    a slot held by a round the full-size ring would keep apart. The
    history-digest and speculative-flag columns are allocated on the
    first speculative acceptance (MultiP and MultiC never store one). *)

open Rcc_common.Ids

type t

val create : z:int -> capacity:int -> t
(** A ring of [max 16 capacity] rounds of [z] instances each. *)

val store : t -> round:round -> floor:round -> Acceptance.t array -> unit
(** Retain round [round] (>= 0): replaces whatever round held its slot,
    unless that round is at or above [floor]. An instance with several
    acceptances keeps the first; instances outside [\[0, z)] are not
    retained. *)

val find : t -> round:round -> instance:instance_id -> Acceptance.t option
(** The acceptance stored for [(round, instance)]: its batch (the same
    pointer), cert, history digest and speculative flag exactly as
    stored. *)

val rollback : t -> frontier:round -> Acceptance.t list
(** Drop every round [>= frontier] and return their acceptances, as
    {!find} would have; visits only those rounds' slots. *)

val slots : t -> int
(** Round slots allocated now. The ring starts at the capacity halved
    for as long as that leaves a whole number of at least 16 slots, and
    doubles on demand: up to the capacity, or past it while rounds at or
    above the floor fill it. *)
