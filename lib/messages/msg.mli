(** Wire messages for every protocol in the system.

    One shared vocabulary keeps the network, replica pipeline, and all four
    protocol families (PBFT, Zyzzyva, HotStuff, RCC unification) on a
    single bus. Sizes follow the paper's §7.2 measurements: with a batch of
    100 transactions a PRE-PREPARE is 5400 bytes, a RESPONSE 1748 bytes,
    and every other message 250 bytes. *)

open Rcc_common.Ids

(** Zyzzyva commit certificate: the client's proof that [2f+1] replicas
    returned matching speculative responses. *)
type commit_cert = {
  cc_instance : instance_id;
  cc_seq : seqno;
  cc_client : client_id;  (** who holds the certificate: the ack target *)
  cc_digest : string;
  cc_replicas : int list;
}

(** One instance's round result inside an RCC recovery contract: the batch
    plus the set of replicas whose accept proofs back it. *)
type contract_entry = {
  ce_instance : instance_id;
  ce_round : round;
  ce_batch : Batch.t;
  ce_cert_replicas : int list;
}

(** One replica's authenticated accusation inside a {!View_sync}
    certificate: [bv_sig] signs the blame digest over (instance, the view
    being left, its primary under the deterministic rotation, [bv_round])
    with [bv_accuser]'s replica key. f+1 distinct verifying votes prove a
    blame quorum really deposed that primary. *)
type blame_vote = {
  bv_accuser : replica_id;
  bv_round : round;
  bv_sig : string;
}

type t =
  | Client_request of { instance : instance_id; batch : Batch.t }
  (* PBFT (also the replication stage of MultiP) *)
  | Pre_prepare of { instance : instance_id; view : view; seq : seqno; batch : Batch.t }
  | Prepare of { instance : instance_id; view : view; seq : seqno; digest : string }
  | Commit of { instance : instance_id; view : view; seq : seqno; digest : string }
  | Checkpoint of { instance : instance_id; seq : seqno; state_digest : string }
  | View_change of {
      instance : instance_id;
      new_view : view;
      blamed : replica_id;
      round : round;  (** round in which the failure was detected *)
      last_exec : seqno;
      signature : string;
          (** accuser's signature over the blame digest for
              (instance, new_view - 1, blamed, round); lets the blame be
              re-shipped later as a {!blame_vote} *)
    }
  | New_view of {
      instance : instance_id;
      view : view;
      reproposals : (seqno * Batch.t) list;
    }
  (* Zyzzyva (also the replication stage of MultiZ) *)
  | Order_request of {
      instance : instance_id;
      view : view;
      seq : seqno;
      batch : Batch.t;
      history : string;  (** chained digest of the ordering history *)
    }
  | Commit_cert of commit_cert  (* client -> replicas *)
  | Local_commit of { instance : instance_id; seq : seqno; client : client_id }
  (* HotStuff *)
  | Hs_proposal of {
      view : view;
      phase : int;  (** 0 prepare, 1 pre-commit, 2 commit, 3 decide *)
      seq : seqno;
      batch : Batch.t option;  (** carried in phase 0 only *)
      digest : string;
    }
  | Hs_vote of { view : view; phase : int; seq : seqno; digest : string }
  (* Replica -> client *)
  | Response of {
      client : client_id;
      batch_id : int;
      round : round;
      result_digest : string;
      txn_count : int;
      speculative : bool;  (** true for Zyzzyva spec-responses *)
      history : string;  (** Zyzzyva history digest; "" elsewhere *)
    }
  (* RCC unification *)
  | Contract of { round : round; entries : contract_entry list }
  | Contract_request of { round : round; instance : instance_id }
  | Contract_reply of {
      instance : instance_id;
      round : round;  (** the requested round *)
      max_seen : round;
          (** the sender's highest round with any slot in [instance] (-1
              if none): a fresh primary that has not seen that far keeps
              waiting for the rounds it lacks *)
      entries : contract_entry list;
          (** [instance]'s consecutive accepted rounds from [round];
              possibly empty *)
    }
      (** Answer to every {!Contract_request}: the requested instance's
          window plus the sender's watermark for it. *)
  | Instance_change of { client : client_id; instance : instance_id }
  | View_sync of {
      instance : instance_id;
      view : view;
      primary : replica_id;
      kmal : replica_id list;
      cert : blame_vote list;
          (** the f+1 blame-quorum evidence behind the latest replacement
              (step [view - 1 -> view]); receivers under the deterministic
              rotation adopt only on a verifying certificate, so a
              byzantine sender cannot forge view adoption *)
    }
      (** Answer to a blame that names an already-deposed primary: the
          sender's current view for the instance, so replicas that missed
          a replacement's blame quorum (partitioned or crashed at the
          time) converge on the coordinator state (§3.3 state exchange
          extended to primary metadata). *)
  (* Checkpoint-backed state transfer (§3.3's checkpoints used for
     recovery: a lagging replica installs a whole snapshot instead of
     replaying the gap round by round). *)
  | Snapshot_request of {
      sr_seq : round;
          (** offer probe ([fetch = false]): the requester's execution
              frontier; fetch ([fetch = true]): the snapshot boundary the
              requester chose from the f+1-matching offers *)
      fetch : bool;
    }
  | Snapshot_reply of {
      sp_seq : round;  (** snapshot boundary: state after rounds [< sp_seq] *)
      sp_head : string;  (** ledger head hash at the boundary *)
      sp_kv : string;
          (** digest of the canonical key-value section; [""] when the
              sender does not materialize state and so cannot attest it *)
      sp_attesters : replica_id list;
          (** replicas whose CHECKPOINT votes the sender holds for a
              stable checkpoint at or beyond the boundary (supporting
              evidence from its [Checkpoint_store]) *)
      sp_payload : string option;
          (** [None] for an offer; [Some blob] answers a fetch with the
              full serialized snapshot *)
    }

val size : t -> int
(** Wire size in bytes under the §7.2 model. *)

val contract_entries_size : contract_entry list -> int
(** Size of a CONTRACT carrying these entries — what {!size} returns for
    [Contract], exposed so a contract can be sized without allocating a
    [t] around its entry list. *)

val kind : t -> string
(** Constructor name, for routing statistics and traces. *)

val instance_of : t -> instance_id option
(** The RCC instance a message belongs to, when it has one (HotStuff and
    cross-instance contract messages do not). *)

val pp : Format.formatter -> t -> unit
