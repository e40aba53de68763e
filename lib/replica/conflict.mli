(** Conflict analysis for parallel execution.

    The scheduler hands a window of replicated batches (a round's z
    instance slots, plus batches from adjacent complete rounds) to
    {!partition}, which groups them by read/write key-set intersection:
    two batches belong to the same dependency group iff one writes a key
    the other touches — transitively — or they carry the same non-null
    digest (a re-ordered duplicate must observe its first execution).
    Groups are pairwise commutable, so the execute pool may run them in
    any interleaving while every group internally replays its members in
    the deterministic (round, rank) order; the resulting KV state, ledger
    blocks and response digests are identical to strictly serial
    f_S(h)-order execution (see DESIGN.md "Parallel execution"). *)

type item = {
  round : Rcc_common.Ids.round;
  rank : int;
      (** position in the round's execution-order permutation (§3.4.1):
          the tie-break that makes replay order reproducible *)
  acc : Acceptance.t;
}

type group = {
  members : item list;  (** ascending (round, rank) — the replay order *)
  txns : int;  (** total transactions across members *)
  conflict_keys : int;
      (** (batch pair, key) WW/WR/RW relations inside the group: per
          key, [W(W-1)/2 + W*R - B] over the group's W writers, R readers
          and B batches doing both; 0 for singletons and for
          duplicate-digest-only merges *)
}

val partition : item array -> group list
(** [partition items] with [items] sorted ascending by (round, rank).
    Deterministic: groups are ordered by their first member, members keep
    (round, rank) order. One pass over the window's keys through a key
    index kept per domain and reused across windows: host time is
    O(window keys), not O(window{^2}). *)

val total_keys : item array -> int
(** Total read+write key-set cardinality over the window — the size of
    the conflict scan, used for CPU cost accounting. *)
