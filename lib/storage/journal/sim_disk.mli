(** A simulated disk that can lie.

    One per replica, surviving incarnations: the network identity and all
    in-memory state die with a crash, but the disk is what a restarted
    replica recovers from. The model is TigerBeetle-style — faults are
    injected at write time from a deterministic per-disk stream, so a
    recovering reader faces exactly the corruptions a real power loss or
    firmware bug would have left behind:

    - {b torn}: a power cut mid-flush persists only a prefix of the
      record and drops the rest of that flush;
    - {b corrupt}: a sector lies — one byte of the stored record is
      flipped (checksums must catch it);
    - {b lost} (misdirected): the write lands nowhere, but later writes
      continue — recovery sees a gap.

    The journal area is a FIFO of flush segments, compacted from the
    front. Each stored record carries the round its writer tagged it
    with; {!compact} drops records oldest-first while they are intact
    and tagged below a point, and stops at the first record a fault
    touched, so a reader's scan halts exactly where it halted before.
    Storing costs the host no copy. A writer hands the disk a {!record}:
    its own framing bytes with shared immutable pieces (a batch's encoded
    transactions, a checkpoint's KV section) spliced in by reference.
    The disk keeps the record as it was handed, so bytes the process
    already holds are stored once however many disks hold them.
    {!journal} and {!snapshots} concatenate the pieces only when the disk
    is read back. A torn or corrupt fault is the one place the disk makes
    a private copy: the faulty bytes are its own flat record. The stored
    bytes are exactly those of a contiguous area whose prefix was cut.

    Checkpoint snapshots live in two slots. A write may carry a
    read-back check; a slot that passes it is {e verified}. The
    {e anchor} is a verified slot the writer promoted
    ({!promote_anchor}); a write never overwrites it, so a corrupt newer
    slot is the next victim, not the last good one. Without an anchor a
    write takes the older slot (the classic A/B superblock discipline).
    A fault while writing one slot never destroys the other. *)

type faults = {
  torn : float;  (** probability a flush tears mid-record *)
  corrupt : float;  (** probability a record's stored bytes are flipped *)
  lost : float;  (** probability a record is silently dropped *)
}

val no_faults : faults
val uniform_faults : float -> faults
(** [uniform_faults p] sets all three probabilities to [p]. *)

type record
(** Bytes handed to the disk: framing with shared pieces spliced in. *)

val flat : string -> record
(** A record of the string's bytes alone. *)

val spliced : frame:string -> at:int array -> string array -> record
(** [spliced ~frame ~at pieces] is [frame] with [pieces.(i)] inserted at
    offset [at.(i)] of [frame] (offsets ascending, at most
    [String.length frame]). The record holds the pieces by reference: they
    must never be mutated. *)

val length : record -> int
(** Bytes of the record, pieces included. *)

val to_string : record -> string
(** The record's bytes, pieces concatenated in place. *)

type t

val create : seed:int -> t
(** A fresh, empty, fault-free disk; [seed] drives the fault stream. *)

val create_shadow : seed:int -> t
(** Like {!create}, but {!compact} never drops anything: the
    uncompacted reference a compacting disk is checked against. *)

val set_faults : t -> faults -> unit
(** Replace the fault model (e.g. the nemesis turning a disk bad
    mid-run). *)

val append : t -> ?round_of:(string -> int) -> record list -> unit
(** One group-commit flush: append the records in order, each subject to
    the fault model. A torn fault persists a strict prefix of the record
    and discards the rest of the flush. Fault draws range over a record's
    whole length, pieces included. [round_of] tags each stored record,
    from the framing it was handed (its bytes without the pieces), with
    the round {!compact} compares
    (default [max_int]: never compacted). *)

val compact : t -> below:int -> int
(** Drop stored records from the front of the area while each is intact
    and tagged below [below]; returns the bytes dropped. Costs
    O(dropped), draws nothing from the fault stream and counts as no
    write. A {!create_shadow} disk drops nothing. *)

val journal : t -> string
(** Everything the journal area currently holds, in append order. The
    concatenation is built here, on read (recovery and tests). *)

val journal_bytes : t -> int
(** Bytes the area holds now, after compaction. *)

val write_snapshot :
  t -> ?check:(record -> bool) -> seq:int -> record -> unit
(** Write a checkpoint blob into a snapshot slot: never the anchor, and
    without one the older slot. Subject to the corrupt and lost fault
    modes; snapshot writes do not tear (the slot header is written last,
    so a torn slot reads as absent). [check] reads the stored blob back:
    the slot is verified iff it returns [true] (default: never). It is
    handed the very record that was written unless a fault changed the
    bytes, so a writer can recognize its own blob physically. *)

val promote_anchor : t -> floor:int -> int
(** Make the newest verified slot with [seq <= floor] the anchor, if it
    is newer than the current one, and return the anchor's [seq] ([-1]
    when there is none). The caller vouches that no rollback goes below
    [floor]. *)

val invalidate_above : t -> frontier:int -> unit
(** Erase every slot with [seq > frontier]: a durable rollback to
    [frontier] unwound the state they hold. *)

val snapshots : t -> (int * string) list
(** Present snapshot slots as [(seq, blob)], newest first; each blob is
    concatenated here, on read. *)

val writes : t -> int
(** Flushes + snapshot writes attempted. *)

val faults_injected : t -> int
val fault_log : t -> string list
(** Kinds of the injected faults, oldest first (for test assertions). *)

val stored : t -> record list * record list
(** The live journal-area records and both slot records, as the disk keeps
    them (pieces shared): for heap footprint accounting. *)
