(** Typed trace events.

    Every event is stamped with the simulated time it happened at plus
    the replica and protocol instance it belongs to ([-1] = none, e.g. a
    client-machine NIC span or a cluster-wide violation marker). The
    payloads cover the seams the rest of the system already flows
    through: the network ({!Net_send}/{!Net_deliver}), the virtual CPU
    servers ({!Span}), the shared slot log ({!Slot_propose}), the
    acceptance path ({!Slot_accept}), round execution ({!Slot_exec}),
    and the RCC coordinator (primary replacement, kmal, blames,
    contracts, collusion). *)

type payload =
  | Net_send of { kind : string; size : int; src : int; dst : int }
  | Net_deliver of { kind : string; size : int; src : int; dst : int }
  | Span of { track : string; dur : int }
      (** busy interval on a CPU/NIC server; [at] is the start time *)
  | Slot_propose of { round : int }
      (** a round opened in the instance's slot log *)
  | Slot_accept of { round : int; batch : int; txns : int }
      (** the instance reported the round accepted upward *)
  | Slot_exec of { round : int; batch : int; txns : int }
      (** the execute stage ran the round's batch for this instance *)
  | Exec_group of { group : int; members : int; txns : int; rounds : int }
      (** parallel exec: dependency group [group] dispatched to the
          execute pool with [members] batches spanning [rounds] rounds *)
  | Exec_conflict of { group : int; keys : int }
      (** the conflict scan glued [group] together over [keys]
          overlapping read/write key relations *)
  | Primary_change of { primary : int; view : int }
  | Kmal of { culprit : int }  (** replica marked known-malicious *)
  | Blame of { round : int; blamed : int; accuser : int }
  | Contract_sent of { round : int; entries : int; bytes : int }
  | Contract_adopted of { round : int; entries : int; disputed : int }
      (** a contract or reply counted: [entries] now stand at f + 1
          responders and are adopted; [disputed] differ from a digest
          already reported for their (instance, round). [round] is the
          contract's own round: the executed round a broadcast contract
          reports on, or the round a reply answers from (the request's
          round), not that of its first adopted entry. Emitted only
          when either count is nonzero. *)
  | Checkpoint_stable of { upto : int }
      (** slots [<= upto] collected under a stable checkpoint *)
  | Collusion  (** coordinator's collusion detector fired *)
  | Violation of { name : string }  (** chaos invariant violation *)
  | St_gap of { behind : int; target : int }
      (** gap detected: this replica's frontier [behind] vs. the
          cluster's attested snapshot boundary [target] *)
  | St_request of { seq : int; fetch : bool }
      (** snapshot requested: an offer probe ([fetch = false]) or the
          full fetch from the chosen donor *)
  | St_served of { seq : int; bytes : int; dst : int }
      (** this replica served a full snapshot to [dst] *)
  | St_verified of { seq : int }
      (** fetched snapshot passed digest + chain verification *)
  | St_installed of { seq : int; rounds : int; bytes : int }
      (** snapshot installed wholesale, skipping [rounds] rounds of
          consensus replay for [bytes] transferred *)
  | St_rejected of { seq : int; donor : int; reason : string }
      (** snapshot from [donor] rejected; recovery proceeds via the next
          candidate donor *)
  | Rollback_begin of { frontier : int; from : int }
      (** a view change exposed a conflicting ordering: speculative
          rounds [frontier .. from - 1] are about to be unwound *)
  | Rollback_round of { round : int; txns : int }
      (** one speculative ledger round undone ([txns] effects reverted) *)
  | Rollback_complete of { frontier : int; rounds : int; txns : int }
      (** rollback finished; execution resumes at [frontier] *)
  | Journal_flush of { records : int; bytes : int; durable : int }
      (** a group-commit flush made [records] journal records durable;
          [durable] is the highest round the disk now proves *)
  | Journal_snapshot of { seq : int; bytes : int }
      (** a checkpoint snapshot covering rounds [< seq] was written to a
          disk snapshot slot *)
  | Journal_fault of { kind : string }
      (** the fault-injecting disk model corrupted a write
          ([kind] = torn | corrupt | lost) *)
  | Journal_truncated of { durable : int; dropped : int }
      (** recovery hit a torn/corrupt record: the journal is truncated to
          the last valid record ([durable] rounds provable, [dropped]
          bytes discarded) *)
  | Journal_compacted of { below : int; dropped_bytes : int }
      (** the writer dropped [dropped_bytes] of journal area holding
          rounds below [below], the seq of the disk's anchor slot *)
  | Journal_replay_begin of { seq : int }
      (** restart-from-disk recovery started from snapshot boundary
          [seq] (0 = no usable snapshot) *)
  | Journal_replay_round of { round : int; txns : int }
      (** one journaled round re-executed during recovery *)
  | Journal_replay_complete of { frontier : int; rounds : int; txns : int }
      (** recovery finished: the replica's frontier is [frontier] after
          replaying [rounds] journaled rounds; anything beyond is state
          transfer's job *)

type t = { at : int; replica : int; instance : int; payload : payload }

val name : payload -> string
(** Stable snake_case tag, used as the JSON event name by both sinks. *)
