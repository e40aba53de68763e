(** The state-transfer state machine: gap detection, snapshot fetch,
    verification, and install for lagging and healed replicas.

    One manager runs per replica, driven by three inputs: the execution
    callback ({!on_executed}), the liveness
    monitor's heartbeat ({!tick}), and routed [Snapshot_request] /
    [Snapshot_reply] traffic ({!on_msg}). Checkpoint votes observed on the
    wire ({!observe_checkpoint}) give passive gap detection the moment a
    healed replica reconnects, without waiting out a stall timeout.

    Protocol (two phases):

    + {b Probe.} A replica whose execution frontier has stalled past the
      replica timeout — or that observes checkpoint votes far beyond its
      frontier — broadcasts [Snapshot_request {fetch = false}] carrying
      its frontier. Peers answer light offers from their latest captured
      checkpoint boundary ({!Rcc_storage.Snapshot.boundary}):
      [(seq, head, kv digest)] plus supporting attesters, no payload.
    + {b Fetch.} Once [f+1] distinct peers offer the {e same}
      [(seq, head, kv)] triple — so at least one correct replica attests
      it — and the boundary is far enough ahead to be worth installing,
      the requester fetches the full blob from one offerer. A donor that
      times out or serves a blob failing verification is dropped and the
      next offerer tried; so is, at once, a donor that answers with an
      empty payload because the boundary has rotated out of its captures.
      When offerers run out the manager returns to idle and re-probes.

    Verification before install is pure recomputation: the blob must
    decode, its chain must link genesis-to-head covering exactly [seq]
    rounds, the recomputed head must equal the attested one, and the
    recomputed KV digest must equal the attested one. A byzantine donor
    can therefore waste one fetch round-trip but cannot make a correct
    replica install wrong state (see {!Rcc_storage.Snapshot}).

    Fault-free runs never probe (the frontier never stalls and observed
    checkpoint votes never outrun it), so the manager adds no messages,
    no events, and no metric changes to them. *)

type hooks = {
  n : int;
  f : int;
  self : Rcc_common.Ids.replica_id;
  engine : Rcc_sim.Engine.t;
  timeout : Rcc_sim.Engine.time;
      (** stall threshold for probing and per-donor fetch timeout *)
  checkpoint_interval : int;
      (** paces probing and the minimum gap worth a fetch; [<= 0]
          disables the manager entirely *)
  materialized : bool;
      (** this replica executes against a real KV table, so a snapshot
          without a KV section is useless to it *)
  primaries : Rcc_common.Ids.replica_id list;
      (** initial primary assignment — pins the genesis hash *)
  send : dst:Rcc_common.Ids.replica_id -> Rcc_messages.Msg.t -> unit;
  broadcast : Rcc_messages.Msg.t -> unit;
  boundaries : unit -> Rcc_storage.Snapshot.boundary list;
      (** checkpoint boundaries the execute stage captured, newest first;
          donors serve offers and fetches from these *)
  blocks_prefix : upto:Rcc_common.Ids.round -> Rcc_storage.Block.t array;
  replied_entries :
    unit ->
    (Rcc_common.Ids.client_id * string * Rcc_common.Ids.round * string) list;
      (** live duplicate-reply cache, for donors to bundle *)
  executed_upto : unit -> Rcc_common.Ids.round;
      (** highest executed round (-1 if none) *)
  attesters : seq:Rcc_common.Ids.round -> Rcc_common.Ids.replica_id list;
      (** checkpoint attesters this replica can vouch for at [seq] *)
  corrupt_reply : unit -> bool;
      (** byzantine donor knob: serve bit-flipped snapshot payloads *)
  install : Rcc_storage.Snapshot.t ->
            proof:Rcc_storage.Checkpoint_store.proof -> unit;
      (** install a verified snapshot wholesale: ledger, KV table, exec
          frontier, per-instance logs. Runs only after every check above
          passed; [proof] carries the attested boundary for the
          instances' checkpoint machinery. *)
}

type stats = {
  installs : int;  (** snapshots installed *)
  rejects : int;  (** fetches rejected (bad blob or donor timeout) *)
  rounds_skipped : int;  (** consensus rounds covered by installs *)
  bytes_in : int;  (** snapshot payload bytes received *)
  bytes_out : int;  (** snapshot payload bytes served *)
}

type t

val create : hooks -> t

val stats : t -> stats

val on_executed : t -> round:Rcc_common.Ids.round -> unit
(** Note execution progress for stall detection. Call from the execution
    callback for every executed round. *)

val observe_checkpoint : t -> seq:Rcc_common.Ids.round -> unit
(** A checkpoint vote for [seq] passed through this replica's router.
    Votes far beyond the execution frontier mean the cluster moved on
    without us — probe immediately instead of waiting out the stall
    timeout. *)

val tick : t -> unit
(** Heartbeat: probe on a stalled frontier, expire a probe that drew no
    quorum of offers, fail over a fetch whose donor went quiet. *)

val on_msg : t -> src:Rcc_common.Ids.replica_id -> Rcc_messages.Msg.t -> unit
(** Handle routed [Snapshot_request] / [Snapshot_reply] traffic (other
    messages are ignored). *)
