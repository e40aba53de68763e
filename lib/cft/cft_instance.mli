(** A primary-backup crash-fault-tolerant protocol (viewstamped-
    replication style) as a pluggable instance.

    The paper notes (§8) that the RCC/MultiBFT paradigm "can easily
    incorporate crash-fault tolerant protocols"; this instance demonstrates
    it. Two linear phases: the primary PROPOSEs a batch, backups ACK to the
    primary, and once a majority acknowledges, the primary broadcasts
    COMMIT-NOTIFY and everyone accepts — 3n messages per consensus instead
    of PBFT's O(n^2), at the price of tolerating only crash faults.

    On the wire it reuses the PBFT message constructors (PRE-PREPARE =
    propose, PREPARE = ack, COMMIT = commit-notify). Composed under RCC
    (the module passed as a value to [Replica_builder.create]) it yields
    the "MultiCFT" configuration benchmarked in the ablations. *)

include Rcc_replica.Instance_intf.S

val acked_round : t -> round:Rcc_common.Ids.round -> bool
(** Whether this replica acknowledged the round (backup-side log). *)
