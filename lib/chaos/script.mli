(** Declarative fault scripts for the nemesis.

    A script is a list of timed actions over simulated time. The nemesis
    ({!Nemesis}) schedules each action on the cluster's engine and
    translates it into network link rules, crash/restart of nodes, or
    in-place mutation of a replica's byzantine behaviour spec.

    Scripts print deterministically ({!to_string}), so a fuzzer failure
    report is reproducible byte-for-byte from its seed. *)

open Rcc_common.Ids

type behaviour =
  | Dark of replica_id list  (** as primary, keep these replicas in the dark *)
  | False_blame of replica_id list  (** accuse these non-faulty primaries *)
  | Ignore_clients  (** as primary, starve clients (§3.6 DoS) *)
  | Equivocate  (** as primary, propose conflicting batches *)
  | Forge_views
      (** broadcast forged view-sync messages with fabricated blame
          certificates; honest coordinators must reject them *)
  | Corrupt_snapshot
      (** as a state-transfer donor, serve bit-flipped snapshot payloads;
          requesters must reject them and fail over to another donor *)
  | Forge_contracts
      (** answer contract requests with the true window but null batches
          and every other replica named as certifier; requesters must
          not adopt one responder's entries *)

type action =
  | Partition of replica_id list list
      (** Named replica sets: traffic between different sets is cut.
          Replicas in no listed set form one implicit remainder set.
          A later [Partition] reshapes (replaces) the current one;
          client machines are never partitioned. *)
  | Heal  (** remove the partition and every link rule installed so far *)
  | Delay_links of {
      from_set : replica_id list;  (** [[]] means every replica *)
      to_set : replica_id list;
      extra : Rcc_sim.Engine.time;
    }  (** inflate propagation delay on matching directed links *)
  | Drop_links of {
      from_set : replica_id list;
      to_set : replica_id list;
      prob : float;  (** 1.0 = deterministic cut of the directed link *)
    }
  | Duplicate_links of { prob : float }
      (** duplicate any message (all links, clients included) with this
          probability — executed effects must stay idempotent *)
  | Crash of replica_id
      (** the node goes dead: sends and receives stop; in-flight traffic
          addressed to it will never be delivered *)
  | Restart of replica_id
      (** revive from durable state (ledger, checkpoints, KV store); the
          volatile NIC queue is lost and the node returns with a fresh
          incarnation, then catches up through the state-exchange path *)
  | Byz_on of replica_id * behaviour
      (** flip the replica's live {!Rcc_replica.Byz.t} spec *)
  | Byz_off of replica_id  (** back to honest *)
  | Restart_from_disk of replica_id
      (** replace the (crashed) replica with a fresh incarnation that
          trusts nothing but its persistent disk: newest verifiable
          snapshot + journal-suffix replay, then state transfer for the
          rest. Distinct from [Restart], which revives the same
          in-memory incarnation. With journaling off the successor comes
          up empty and recovers entirely through state transfer. *)
  | Storage_faults of replica_id * float
      (** make the replica's disk lie: each record write is torn /
          corrupted / lost with this per-mode probability (0.0 heals) *)

type event = { at : Rcc_sim.Engine.time; action : action }

type t = event list

val sorted : t -> t
(** Events in time order (stable for equal times). *)

val last_event_time : t -> Rcc_sim.Engine.time
(** 0 for the empty script. *)

val faulty_replicas : t -> replica_id list
(** Replicas the script ever crashes, makes byzantine, or gives a lying
    disk, sorted. *)

val pp : Format.formatter -> t -> unit

val to_string : t -> string
(** One "t=<ms> <action>" line per event; deterministic. *)
