(** In-memory key-value store (§6 "Storage and Ledger Management").

    Holds the YCSB table: integer keys to fixed-size records. Tracks a
    monotone version per key and a state digest accumulator so replicas can
    compare states cheaply in tests.

    Layout: keys in the direct range [\[0, 2^22)] live in two unboxed
    [int array] columns, [value] and [version], indexed by key; a version
    of [-1] marks an absent key (whose value cell is kept at 0). The
    columns grow by doubling and {!init_records} sizes them once, so a
    record costs two words and holds no pointer for the major GC to
    follow. Keys outside the direct range (negative or [>= 2^22]) spill
    to a hash table. *)

type t

val create : unit -> t

val init_records : t -> count:int -> unit
(** Load [count] records with deterministic initial contents, as the paper
    initializes each replica with an identical copy of the YCSB table. *)

val read : t -> int -> int option
(** Current value, if the key exists. *)

val value : t -> int -> int
(** Current value, or 0 if the key is absent; {!read} without the
    option box (counted as a read the same way). *)

val write : t -> key:int -> value:int -> unit

val version : t -> int -> int
(** Number of writes ever applied to the key (0 if never written). *)

val size : t -> int

val reads_performed : t -> int
val writes_performed : t -> int

val state_digest : t -> string
(** Order-insensitive digest of the current key/value/version state; equal
    states yield equal digests. Intended for test assertions, not the hot
    path. *)

val iter : t -> (int -> int -> int -> unit) -> unit
(** [iter t f] calls [f key value version] over every record in canonical
    order (direct keys ascending, then spill keys ascending) — equal
    states enumerate identically regardless of array/spill placement. *)

val entries : t -> (int * int * int) array
(** The whole table as [(key, value, version)] triples in canonical
    order, as a decoded {!Snapshot.t} holds it. *)

val install : t -> (int * int * int) array -> unit
(** Replace the entire table with the given triples (state transfer
    install). Access counters are left untouched; the undo journal is
    cleared (its entries describe pre-install state). *)

(** {2 Speculative undo journal}

    Support for rolling back speculative rounds on a view change: while
    journaling is enabled, every write records the key's prior
    (value, version) tagged with the round set by {!journal_round}, and
    {!undo_above} restores the state as of the end of an earlier round.
    Per-key entries must be appended in execution order (the execute
    stage guarantees this: serial rounds run in order, and the parallel
    scheduler serializes same-key access inside conflict groups). *)

val enable_journal : t -> unit
(** Turn journaling on (off by default; a disabled journal costs one
    branch per write). There is no way to turn it off again — callers
    bound it with {!forget_below} as rounds become durable instead. *)

val journal_round : t -> int -> unit
(** Tag subsequent writes with this round. *)

val undo_above : t -> round:int -> unit
(** Restore every key written at rounds [>= round] to its pre-round
    state, newest write first, and drop those journal entries. *)

val forget_below : t -> round:int -> unit
(** Drop journal entries of rounds [< round] — they are attested by a
    checkpoint or commit certificate and will never be undone. *)

val journal_clear : t -> unit
(** Drop the whole journal (snapshot install supersedes all of it). *)

val journal_length : t -> int
(** Live journal entries, for tests and memory accounting. *)
