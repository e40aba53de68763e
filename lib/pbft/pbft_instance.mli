(** PBFT (Castro & Liskov, OSDI '99) as a pluggable instance.

    The three normal-case phases (PRE-PREPARE, PREPARE, COMMIT), the
    checkpoint protocol, and the view-change/new-view protocol, satisfying
    requirements R1–R4 of §3.3:

    - R1/R3: a round is accepted only with a 2f+1 commit certificate over a
      single digest per (view, round).
    - R2: a watchdog detects lack of progress on the oldest incomplete
      round and raises a view-change (standalone) or reports to the RCC
      coordinator (unified).
    - R4: standalone view-changes elect [view mod n]; under RCC the
      coordinator installs primaries via [set_primary], and the new primary
      re-proposes its incomplete rounds, filling unknown rounds with null
      batches.

    One consensus per round; consensuses pipeline freely (§6): the primary
    proposes round r+1 without waiting for round r. *)

include Rcc_replica.Instance_intf.S

val stable_checkpoint : t -> Rcc_common.Ids.round
val prepared_round : t -> round:Rcc_common.Ids.round -> bool

