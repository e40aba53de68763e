module Bytes_util = Rcc_common.Bytes_util

(* --- writer ------------------------------------------------------------- *)

let w_int buf v = Buffer.add_string buf (Bytes_util.u64_string (Int64.of_int v))

let w_string buf s =
  w_int buf (String.length s);
  Buffer.add_string buf s

let w_bool buf b = Buffer.add_char buf (if b then '\x01' else '\x00')

let w_list buf f l =
  w_int buf (List.length l);
  List.iter (f buf) l

let w_batch buf (b : Batch.t) =
  w_int buf b.Batch.id;
  w_int buf b.Batch.client;
  w_int buf (Array.length b.Batch.txns);
  Array.iter (fun txn -> Buffer.add_string buf (Rcc_workload.Txn.encode txn)) b.Batch.txns;
  w_string buf b.Batch.digest;
  w_string buf b.Batch.signature

let w_vote buf (v : Msg.blame_vote) =
  w_int buf v.Msg.bv_accuser;
  w_int buf v.Msg.bv_round;
  w_string buf v.Msg.bv_sig

let w_entry buf (e : Msg.contract_entry) =
  w_int buf e.Msg.ce_instance;
  w_int buf e.Msg.ce_round;
  w_batch buf e.Msg.ce_batch;
  w_list buf w_int e.Msg.ce_cert_replicas

(* --- reader -------------------------------------------------------------- *)

exception Malformed of string

type reader = { buf : string; mutable pos : int }

let need r n =
  if r.pos + n > String.length r.buf then raise (Malformed "truncated input")

let r_int r =
  need r 8;
  let v = Int64.to_int (Bytes_util.get_u64be r.buf r.pos) in
  r.pos <- r.pos + 8;
  v

let r_string r =
  let len = r_int r in
  if len < 0 then raise (Malformed "negative length");
  need r len;
  let s = String.sub r.buf r.pos len in
  r.pos <- r.pos + len;
  s

let r_bool r =
  need r 1;
  let c = r.buf.[r.pos] in
  r.pos <- r.pos + 1;
  match c with
  | '\x00' -> false
  | '\x01' -> true
  | _ -> raise (Malformed "bad boolean")

let r_list r f =
  let len = r_int r in
  if len < 0 || len > 1_000_000 then raise (Malformed "bad list length");
  List.init len (fun _ -> f r)

let r_batch r =
  let id = r_int r in
  let client = r_int r in
  let ntxns = r_int r in
  if ntxns < 0 || ntxns > 1_000_000 then raise (Malformed "bad txn count");
  let txns =
    Array.init ntxns (fun _ ->
        need r Rcc_workload.Txn.encoded_size;
        match Rcc_workload.Txn.decode r.buf r.pos with
        | Ok txn ->
            r.pos <- r.pos + Rcc_workload.Txn.encoded_size;
            txn
        | Error e -> raise (Malformed e))
  in
  let digest = r_string r in
  let signature = r_string r in
  Batch.of_parts ~id ~client ~txns ~digest ~signature

let r_vote r =
  let bv_accuser = r_int r in
  let bv_round = r_int r in
  let bv_sig = r_string r in
  { Msg.bv_accuser; bv_round; bv_sig }

let r_entry r =
  let ce_instance = r_int r in
  let ce_round = r_int r in
  let ce_batch = r_batch r in
  let ce_cert_replicas = r_list r r_int in
  { Msg.ce_instance; ce_round; ce_batch; ce_cert_replicas }

(* --- top level -------------------------------------------------------------- *)

let encode msg =
  let buf = Buffer.create 256 in
  (match msg with
  | Msg.Client_request { instance; batch } ->
      Buffer.add_char buf '\x01';
      w_int buf instance;
      w_batch buf batch
  | Msg.Pre_prepare { instance; view; seq; batch } ->
      Buffer.add_char buf '\x02';
      w_int buf instance;
      w_int buf view;
      w_int buf seq;
      w_batch buf batch
  | Msg.Prepare { instance; view; seq; digest } ->
      Buffer.add_char buf '\x03';
      w_int buf instance;
      w_int buf view;
      w_int buf seq;
      w_string buf digest
  | Msg.Commit { instance; view; seq; digest } ->
      Buffer.add_char buf '\x04';
      w_int buf instance;
      w_int buf view;
      w_int buf seq;
      w_string buf digest
  | Msg.Checkpoint { instance; seq; state_digest } ->
      Buffer.add_char buf '\x05';
      w_int buf instance;
      w_int buf seq;
      w_string buf state_digest
  | Msg.View_change { instance; new_view; blamed; round; last_exec; signature } ->
      Buffer.add_char buf '\x06';
      w_int buf instance;
      w_int buf new_view;
      w_int buf blamed;
      w_int buf round;
      w_int buf last_exec;
      w_string buf signature
  | Msg.New_view { instance; view; reproposals } ->
      Buffer.add_char buf '\x07';
      w_int buf instance;
      w_int buf view;
      w_list buf
        (fun buf (seq, batch) ->
          w_int buf seq;
          w_batch buf batch)
        reproposals
  | Msg.Order_request { instance; view; seq; batch; history } ->
      Buffer.add_char buf '\x08';
      w_int buf instance;
      w_int buf view;
      w_int buf seq;
      w_batch buf batch;
      w_string buf history
  | Msg.Commit_cert { cc_instance; cc_seq; cc_client; cc_digest; cc_replicas } ->
      Buffer.add_char buf '\x09';
      w_int buf cc_instance;
      w_int buf cc_seq;
      w_int buf cc_client;
      w_string buf cc_digest;
      w_list buf w_int cc_replicas
  | Msg.Local_commit { instance; seq; client } ->
      Buffer.add_char buf '\x0a';
      w_int buf instance;
      w_int buf seq;
      w_int buf client
  | Msg.Hs_proposal { view; phase; seq; batch; digest } ->
      Buffer.add_char buf '\x0b';
      w_int buf view;
      w_int buf phase;
      w_int buf seq;
      (match batch with
      | Some b ->
          w_bool buf true;
          w_batch buf b
      | None -> w_bool buf false);
      w_string buf digest
  | Msg.Hs_vote { view; phase; seq; digest } ->
      Buffer.add_char buf '\x0c';
      w_int buf view;
      w_int buf phase;
      w_int buf seq;
      w_string buf digest
  | Msg.Response { client; batch_id; round; result_digest; txn_count; speculative; history } ->
      Buffer.add_char buf '\x0d';
      w_int buf client;
      w_int buf batch_id;
      w_int buf round;
      w_string buf result_digest;
      w_int buf txn_count;
      w_bool buf speculative;
      w_string buf history
  | Msg.Contract { round; entries } ->
      Buffer.add_char buf '\x0e';
      w_int buf round;
      w_list buf w_entry entries
  | Msg.Contract_request { round; instance } ->
      Buffer.add_char buf '\x0f';
      w_int buf round;
      w_int buf instance
  | Msg.Instance_change { client; instance } ->
      Buffer.add_char buf '\x10';
      w_int buf client;
      w_int buf instance
  | Msg.View_sync { instance; view; primary; kmal; cert } ->
      Buffer.add_char buf '\x11';
      w_int buf instance;
      w_int buf view;
      w_int buf primary;
      w_list buf w_int kmal;
      w_list buf w_vote cert
  | Msg.Snapshot_request { sr_seq; fetch } ->
      Buffer.add_char buf '\x12';
      w_int buf sr_seq;
      w_bool buf fetch
  | Msg.Snapshot_reply { sp_seq; sp_head; sp_kv; sp_attesters; sp_payload } ->
      Buffer.add_char buf '\x13';
      w_int buf sp_seq;
      w_string buf sp_head;
      w_string buf sp_kv;
      w_list buf w_int sp_attesters;
      (match sp_payload with
      | Some blob ->
          w_bool buf true;
          w_string buf blob
      | None -> w_bool buf false));
  Buffer.contents buf

let decode_exn s =
  if String.length s = 0 then raise (Malformed "empty input");
  let r = { buf = s; pos = 1 } in
  let msg =
    match s.[0] with
    | '\x01' ->
        let instance = r_int r in
        Msg.Client_request { instance; batch = r_batch r }
    | '\x02' ->
        let instance = r_int r in
        let view = r_int r in
        let seq = r_int r in
        Msg.Pre_prepare { instance; view; seq; batch = r_batch r }
    | '\x03' ->
        let instance = r_int r in
        let view = r_int r in
        let seq = r_int r in
        Msg.Prepare { instance; view; seq; digest = r_string r }
    | '\x04' ->
        let instance = r_int r in
        let view = r_int r in
        let seq = r_int r in
        Msg.Commit { instance; view; seq; digest = r_string r }
    | '\x05' ->
        let instance = r_int r in
        let seq = r_int r in
        Msg.Checkpoint { instance; seq; state_digest = r_string r }
    | '\x06' ->
        let instance = r_int r in
        let new_view = r_int r in
        let blamed = r_int r in
        let round = r_int r in
        let last_exec = r_int r in
        Msg.View_change { instance; new_view; blamed; round; last_exec; signature = r_string r }
    | '\x07' ->
        let instance = r_int r in
        let view = r_int r in
        let reproposals =
          r_list r (fun r ->
              let seq = r_int r in
              (seq, r_batch r))
        in
        Msg.New_view { instance; view; reproposals }
    | '\x08' ->
        let instance = r_int r in
        let view = r_int r in
        let seq = r_int r in
        let batch = r_batch r in
        Msg.Order_request { instance; view; seq; batch; history = r_string r }
    | '\x09' ->
        let cc_instance = r_int r in
        let cc_seq = r_int r in
        let cc_client = r_int r in
        let cc_digest = r_string r in
        Msg.Commit_cert
          { cc_instance; cc_seq; cc_client; cc_digest; cc_replicas = r_list r r_int }
    | '\x0a' ->
        let instance = r_int r in
        let seq = r_int r in
        Msg.Local_commit { instance; seq; client = r_int r }
    | '\x0b' ->
        let view = r_int r in
        let phase = r_int r in
        let seq = r_int r in
        let batch = if r_bool r then Some (r_batch r) else None in
        Msg.Hs_proposal { view; phase; seq; batch; digest = r_string r }
    | '\x0c' ->
        let view = r_int r in
        let phase = r_int r in
        let seq = r_int r in
        Msg.Hs_vote { view; phase; seq; digest = r_string r }
    | '\x0d' ->
        let client = r_int r in
        let batch_id = r_int r in
        let round = r_int r in
        let result_digest = r_string r in
        let txn_count = r_int r in
        let speculative = r_bool r in
        Msg.Response
          { client; batch_id; round; result_digest; txn_count; speculative;
            history = r_string r }
    | '\x0e' ->
        let round = r_int r in
        Msg.Contract { round; entries = r_list r r_entry }
    | '\x0f' ->
        let round = r_int r in
        Msg.Contract_request { round; instance = r_int r }
    | '\x10' ->
        let client = r_int r in
        Msg.Instance_change { client; instance = r_int r }
    | '\x11' ->
        let instance = r_int r in
        let view = r_int r in
        let primary = r_int r in
        let kmal = r_list r r_int in
        Msg.View_sync { instance; view; primary; kmal; cert = r_list r r_vote }
    | '\x12' ->
        let sr_seq = r_int r in
        Msg.Snapshot_request { sr_seq; fetch = r_bool r }
    | '\x13' ->
        let sp_seq = r_int r in
        let sp_head = r_string r in
        let sp_kv = r_string r in
        let sp_attesters = r_list r r_int in
        let sp_payload = if r_bool r then Some (r_string r) else None in
        Msg.Snapshot_reply { sp_seq; sp_head; sp_kv; sp_attesters; sp_payload }
    | c -> raise (Malformed (Printf.sprintf "unknown tag 0x%02x" (Char.code c)))
  in
  if r.pos <> String.length s then raise (Malformed "trailing bytes");
  msg

let decode s =
  match decode_exn s with
  | msg -> Ok msg
  | exception Malformed e -> Error e

let encoded_size msg = String.length (encode msg)
