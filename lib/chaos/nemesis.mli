(** Executes a fault {!Script} against a built (not yet running) cluster.

    [install] schedules every scripted action on the cluster's engine;
    the actions then fire as the simulation clock passes their times.
    Faults are injected through the composable {!Rcc_sim.Net} link rules
    (partition, delay, probabilistic drop, duplication), through
    {!Rcc_sim.Net.set_dead} (crash/restart), and by mutating a replica's
    live {!Rcc_replica.Byz.t} spec in place (behaviour activation).

    All randomness (probabilistic drops, duplication) is drawn from a
    dedicated generator seeded by [seed], so a run is a pure function of
    (config, script, seed). *)

type t

val install : ?seed:int -> Rcc_runtime.Cluster.t -> Script.t -> t
(** Call between {!Rcc_runtime.Cluster.build} and
    {!Rcc_runtime.Cluster.run}. [seed] defaults to 0x6e656d (distinct from
    the cluster's own streams either way). *)

val tainted : t -> Rcc_common.Ids.replica_id list
(** Replicas that have behaved byzantinely at any point so far — excluded
    from safety guarantees by the invariant checker. Grows as the script
    plays; query it at check time. *)

val dead_now : t -> Rcc_common.Ids.replica_id list
(** Replicas currently crashed. *)

