(* One structured trace event. Events are plain values so recording is a
   single array store; everything that needs formatting lives in Sink. *)

type payload =
  | Net_send of { kind : string; size : int; src : int; dst : int }
  | Net_deliver of { kind : string; size : int; src : int; dst : int }
  | Span of { track : string; dur : int }
      (* busy interval on a CPU/NIC server; [at] is the start time *)
  | Slot_propose of { round : int }
  | Slot_accept of { round : int; batch : int; txns : int }
  | Slot_exec of { round : int; batch : int; txns : int }
  (* Parallel-execution family: the conflict scheduler dispatched a
     dependency group to the execute pool ([Exec_group]); groups glued
     together by key overlaps also stamp the conflict size
     ([Exec_conflict]). Group ids are per-replica monotonic, so Chrome
     traces correlate a group's dispatch with its pool span. *)
  | Exec_group of { group : int; members : int; txns : int; rounds : int }
  | Exec_conflict of { group : int; keys : int }
  | Primary_change of { primary : int; view : int }
  | Kmal of { culprit : int }
  | Blame of { round : int; blamed : int; accuser : int }
  | Contract_sent of { round : int; entries : int; bytes : int }
  | Contract_adopted of { round : int; entries : int; disputed : int }
  | Checkpoint_stable of { upto : int }
  | Collusion
  | Violation of { name : string }
  (* State-transfer family: a lagging replica detecting and closing a gap
     via snapshot install (events carry the snapshot boundary [seq]). *)
  | St_gap of { behind : int; target : int }
  | St_request of { seq : int; fetch : bool }
  | St_served of { seq : int; bytes : int; dst : int }
  | St_verified of { seq : int }
  | St_installed of { seq : int; rounds : int; bytes : int }
  | St_rejected of { seq : int; donor : int; reason : string }
  (* Speculative-rollback family: a view change exposed a conflicting
     ordering, so uncommitted speculative rounds above the attested
     frontier [frontier] are unwound — one [Rollback_round] per undone
     ledger round — and re-executed as the new view re-orders them. *)
  | Rollback_begin of { frontier : int; from : int }
  | Rollback_round of { round : int; txns : int }
  | Rollback_complete of { frontier : int; rounds : int; txns : int }
  (* Durable-journal family: group-commit flushes to the simulated disk,
     checkpoint snapshot writes, injected storage faults, and
     restart-from-disk recovery (scan, per-round replay, completion). *)
  | Journal_flush of { records : int; bytes : int; durable : int }
  | Journal_snapshot of { seq : int; bytes : int }
  | Journal_fault of { kind : string }
  | Journal_truncated of { durable : int; dropped : int }
  | Journal_compacted of { below : int; dropped_bytes : int }
  | Journal_replay_begin of { seq : int }
  | Journal_replay_round of { round : int; txns : int }
  | Journal_replay_complete of { frontier : int; rounds : int; txns : int }

type t = {
  at : int;  (* simulated ns *)
  replica : int;  (* -1 when not tied to a replica *)
  instance : int;  (* -1 when not tied to an instance *)
  payload : payload;
}

let name = function
  | Net_send _ -> "net_send"
  | Net_deliver _ -> "net_deliver"
  | Span _ -> "span"
  | Slot_propose _ -> "slot_propose"
  | Slot_accept _ -> "slot_accept"
  | Slot_exec _ -> "slot_exec"
  | Exec_group _ -> "exec_group"
  | Exec_conflict _ -> "exec_conflict"
  | Primary_change _ -> "primary_change"
  | Kmal _ -> "kmal"
  | Blame _ -> "blame"
  | Contract_sent _ -> "contract_sent"
  | Contract_adopted _ -> "contract_adopted"
  | Checkpoint_stable _ -> "checkpoint_stable"
  | Collusion -> "collusion"
  | Violation _ -> "violation"
  | St_gap _ -> "st_gap"
  | St_request _ -> "st_request"
  | St_served _ -> "st_served"
  | St_verified _ -> "st_verified"
  | St_installed _ -> "st_installed"
  | St_rejected _ -> "st_rejected"
  | Rollback_begin _ -> "rollback_begin"
  | Rollback_round _ -> "rollback_round"
  | Rollback_complete _ -> "rollback_complete"
  | Journal_flush _ -> "journal_flush"
  | Journal_snapshot _ -> "journal_snapshot"
  | Journal_fault _ -> "journal_fault"
  | Journal_truncated _ -> "journal_truncated"
  | Journal_compacted _ -> "journal_compacted"
  | Journal_replay_begin _ -> "journal_replay_begin"
  | Journal_replay_round _ -> "journal_replay_round"
  | Journal_replay_complete _ -> "journal_replay_complete"
