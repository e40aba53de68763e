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

    The journal area is append-only; checkpoint snapshots live in two
    alternating slots so a fault while writing one never destroys the
    other (the classic A/B superblock discipline).

    Storing costs the host no copy: the area keeps each stored record
    (or a torn record's surviving prefix) as the string it was handed,
    in a list with a byte count, and {!journal} concatenates them only
    when the area is read back. The stored bytes are exactly those of a
    contiguous append-only area. *)

type faults = {
  torn : float;  (** probability a flush tears mid-record *)
  corrupt : float;  (** probability a record's stored bytes are flipped *)
  lost : float;  (** probability a record is silently dropped *)
}

val no_faults : faults
val uniform_faults : float -> faults
(** [uniform_faults p] sets all three probabilities to [p]. *)

type t

val create : seed:int -> t
(** A fresh, empty, fault-free disk; [seed] drives the fault stream. *)

val set_faults : t -> faults -> unit
(** Replace the fault model (e.g. the nemesis turning a disk bad
    mid-run). *)

val append : t -> string list -> unit
(** One group-commit flush: append the records in order, each subject to
    the fault model. A torn fault persists a strict prefix of the record
    and discards the rest of the flush. *)

val journal : t -> string
(** Everything the journal area currently holds, in append order. The
    concatenation is built here, on read (recovery and tests). *)

val journal_bytes : t -> int

val write_snapshot : t -> seq:int -> string -> unit
(** Write a checkpoint blob into the older of the two snapshot slots
    (never overwriting the newest good one). Subject to the corrupt and
    lost fault modes; snapshot writes do not tear (the slot header is
    written last, so a torn slot reads as absent). *)

val snapshots : t -> (int * string) list
(** Present snapshot slots as [(seq, blob)], newest first. *)

val writes : t -> int
(** Flushes + snapshot writes attempted. *)

val faults_injected : t -> int
val fault_log : t -> string list
(** Kinds of the injected faults, oldest first (for test assertions). *)
