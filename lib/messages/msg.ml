open Rcc_common.Ids

type commit_cert = {
  cc_instance : instance_id;
  cc_seq : seqno;
  cc_client : client_id;  (* who holds the certificate: the ack target *)
  cc_digest : string;
  cc_replicas : int list;
}

type contract_entry = {
  ce_instance : instance_id;
  ce_round : round;
  ce_batch : Batch.t;
  ce_cert_replicas : int list;
}

type blame_vote = {
  bv_accuser : replica_id;
  bv_round : round;
  bv_sig : string;
}

type t =
  | Client_request of { instance : instance_id; batch : Batch.t }
  | Pre_prepare of { instance : instance_id; view : view; seq : seqno; batch : Batch.t }
  | Prepare of { instance : instance_id; view : view; seq : seqno; digest : string }
  | Commit of { instance : instance_id; view : view; seq : seqno; digest : string }
  | Checkpoint of { instance : instance_id; seq : seqno; state_digest : string }
  | View_change of {
      instance : instance_id;
      new_view : view;
      blamed : replica_id;
      round : round;
      last_exec : seqno;
      signature : string;
    }
  | New_view of {
      instance : instance_id;
      view : view;
      reproposals : (seqno * Batch.t) list;
    }
  | Order_request of {
      instance : instance_id;
      view : view;
      seq : seqno;
      batch : Batch.t;
      history : string;
    }
  | Commit_cert of commit_cert
  | Local_commit of { instance : instance_id; seq : seqno; client : client_id }
  | Hs_proposal of {
      view : view;
      phase : int;
      seq : seqno;
      batch : Batch.t option;
      digest : string;
    }
  | Hs_vote of { view : view; phase : int; seq : seqno; digest : string }
  | Response of {
      client : client_id;
      batch_id : int;
      round : round;
      result_digest : string;
      txn_count : int;
      speculative : bool;
      history : string;
    }
  | Contract of { round : round; entries : contract_entry list }
  | Contract_request of { round : round; instance : instance_id }
  | Contract_reply of {
      instance : instance_id;
      round : round;
      max_seen : round;
      entries : contract_entry list;
    }
  | Instance_change of { client : client_id; instance : instance_id }
  | View_sync of {
      instance : instance_id;
      view : view;
      primary : replica_id;
      kmal : replica_id list;
      cert : blame_vote list;
    }
  | Snapshot_request of { sr_seq : round; fetch : bool }
  | Snapshot_reply of {
      sp_seq : round;
      sp_head : string;
      sp_kv : string;
      sp_attesters : replica_id list;
      sp_payload : string option;
    }

(* The paper's size for batch-free protocol messages. *)
let header_size = 250

(* Batch-carrying messages add 150 B of framing over the plain header so
   that a 100-txn PRE-PREPARE is 250 + 150 + 100*50 = 5400 B. A RESPONSE is
   248 + 15 B per transaction result = 1748 B at batch size 100. *)
let batch_frame = 150
let response_base = 248
let response_per_txn = 15

(* Per entry: the batch plus the accept proof — a PREPARE and a COMMIT
   message per certifying replica (footnote 3). Shared with
   [Contract.size] so contracts can be sized without building a [t]. *)
let contract_entries_size entries =
  header_size
  + List.fold_left
      (fun acc e ->
        acc + batch_frame + Batch.size e.ce_batch
        + (2 * header_size * List.length e.ce_cert_replicas))
      0 entries

let size = function
  | Client_request { batch; _ } -> header_size + batch_frame + Batch.size batch
  | Pre_prepare { batch; _ } -> header_size + batch_frame + Batch.size batch
  | Order_request { batch; _ } -> header_size + batch_frame + Batch.size batch
  | Hs_proposal { batch; _ } -> (
      match batch with
      | Some b -> header_size + batch_frame + Batch.size b
      | None -> header_size)
  | Response { txn_count; _ } -> response_base + (response_per_txn * txn_count)
  | New_view { reproposals; _ } ->
      header_size
      + List.fold_left
          (fun acc (_, b) -> acc + batch_frame + Batch.size b)
          0 reproposals
  | Commit_cert { cc_replicas; _ } ->
      header_size + (48 * List.length cc_replicas)
  | Contract { entries; _ } | Contract_reply { entries; _ } ->
      contract_entries_size entries
  (* Per kmal entry a replica id; per certificate vote an accuser id, a
     round, and a 64-byte signature. *)
  | View_sync { kmal; cert; _ } ->
      header_size + (8 * List.length kmal) + (80 * List.length cert)
  (* Header plus two 32-byte digests and the attester list; a full reply
     additionally carries the snapshot blob verbatim. *)
  | Snapshot_reply { sp_attesters; sp_payload; _ } ->
      header_size + 64
      + (8 * List.length sp_attesters)
      + (match sp_payload with Some blob -> String.length blob | None -> 0)
  | Prepare _ | Commit _ | Checkpoint _ | View_change _ | Local_commit _
  | Hs_vote _ | Contract_request _ | Instance_change _ | Snapshot_request _ ->
      header_size

let kind = function
  | Client_request _ -> "client_request"
  | Pre_prepare _ -> "pre_prepare"
  | Prepare _ -> "prepare"
  | Commit _ -> "commit"
  | Checkpoint _ -> "checkpoint"
  | View_change _ -> "view_change"
  | New_view _ -> "new_view"
  | Order_request _ -> "order_request"
  | Commit_cert _ -> "commit_cert"
  | Local_commit _ -> "local_commit"
  | Hs_proposal _ -> "hs_proposal"
  | Hs_vote _ -> "hs_vote"
  | Response _ -> "response"
  | Contract _ -> "contract"
  | Contract_request _ -> "contract_request"
  | Contract_reply _ -> "contract_reply"
  | Instance_change _ -> "instance_change"
  | View_sync _ -> "view_sync"
  | Snapshot_request _ -> "snapshot_request"
  | Snapshot_reply _ -> "snapshot_reply"

let instance_of = function
  | Client_request { instance; _ }
  | Pre_prepare { instance; _ }
  | Prepare { instance; _ }
  | Commit { instance; _ }
  | Checkpoint { instance; _ }
  | View_change { instance; _ }
  | New_view { instance; _ }
  | Order_request { instance; _ }
  | Local_commit { instance; _ }
  | Contract_request { instance; _ }
  | Contract_reply { instance; _ }
  | Instance_change { instance; _ }
  | View_sync { instance; _ } ->
      Some instance
  | Commit_cert { cc_instance; _ } -> Some cc_instance
  | Hs_proposal _ | Hs_vote _ | Response _ | Contract _ | Snapshot_request _
  | Snapshot_reply _ ->
      None

let pp fmt t =
  match t with
  | Pre_prepare { instance; view; seq; batch } ->
      Format.fprintf fmt "pre_prepare[%a %a s%d b%d]" pp_instance instance
        pp_view view seq batch.Batch.id
  | Prepare { instance; view; seq; _ } ->
      Format.fprintf fmt "prepare[%a %a s%d]" pp_instance instance pp_view view seq
  | Commit { instance; view; seq; _ } ->
      Format.fprintf fmt "commit[%a %a s%d]" pp_instance instance pp_view view seq
  | View_change { instance; new_view; blamed; _ } ->
      Format.fprintf fmt "view_change[%a -> %a blames %a]" pp_instance instance
        pp_view new_view pp_replica blamed
  | Response { client; batch_id; _ } ->
      Format.fprintf fmt "response[%a b%d]" pp_client client batch_id
  | other -> Format.pp_print_string fmt (kind other)
