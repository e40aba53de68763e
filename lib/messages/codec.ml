module Wire = Rcc_common.Wire

(* Lists hold at most [max_list] entries; strings are bounded by the
   input alone. *)
let max_list = 1_000_000

(* --- sizes ---------------------------------------------------------------- *)

let str = Wire.string_size
let ints = Wire.int_list_size
let list_size f l = List.fold_left (fun acc x -> acc + f x) 8 l
let option_size f = function Some x -> 1 + f x | None -> 1
let reproposal_size (_, b) = 8 + Batch.encoded_size b
let vote_size (v : Msg.blame_vote) = 16 + str v.Msg.bv_sig

let entry_size (e : Msg.contract_entry) =
  16 + Batch.encoded_size e.Msg.ce_batch + ints e.Msg.ce_cert_replicas

(* One tag byte, then the fields in constructor order. *)
let encoded_size msg =
  1
  +
  match msg with
  | Msg.Client_request { batch = b; _ } -> 8 + Batch.encoded_size b
  | Msg.Pre_prepare { batch = b; _ } -> 24 + Batch.encoded_size b
  | Msg.Prepare { digest; _ } | Msg.Commit { digest; _ } -> 24 + str digest
  | Msg.Checkpoint { state_digest; _ } -> 16 + str state_digest
  | Msg.View_change { signature; _ } -> 40 + str signature
  | Msg.New_view { reproposals; _ } -> 16 + list_size reproposal_size reproposals
  | Msg.Order_request { batch = b; history; _ } ->
      24 + Batch.encoded_size b + str history
  | Msg.Commit_cert { cc_digest; cc_replicas; _ } ->
      24 + str cc_digest + ints cc_replicas
  | Msg.Local_commit _ -> 24
  | Msg.Hs_proposal { batch = b; digest; _ } ->
      24 + option_size Batch.encoded_size b + str digest
  | Msg.Hs_vote { digest; _ } -> 24 + str digest
  | Msg.Response { result_digest; history; _ } ->
      24 + str result_digest + 9 + str history
  | Msg.Contract { entries; _ } -> 8 + list_size entry_size entries
  | Msg.Contract_request _ | Msg.Instance_change _ -> 16
  | Msg.View_sync { kmal; cert; _ } -> 24 + ints kmal + list_size vote_size cert
  | Msg.Snapshot_request _ -> 9
  | Msg.Snapshot_reply { sp_head; sp_kv; sp_attesters; sp_payload; _ } ->
      8 + str sp_head + str sp_kv + ints sp_attesters
      + option_size str sp_payload

(* --- writer --------------------------------------------------------------- *)

let tag b c = Wire.put_byte b c 0
let put_int = Wire.put_int
let put_string = Wire.put_string
let put_bool = Wire.put_bool
let put_ints = Wire.put_int_list

let put_list b f l off =
  List.fold_left (fun off x -> f b x off) (put_int b (List.length l) off) l

let put_option b f v off =
  match v with Some x -> f b x (put_bool b true off) | None -> put_bool b false off

let put_reproposal b (seq, batch) off = put_int b seq off |> Batch.write b batch

let put_vote b (v : Msg.blame_vote) off =
  put_int b v.Msg.bv_accuser off
  |> put_int b v.Msg.bv_round
  |> put_string b v.Msg.bv_sig

let put_entry b (e : Msg.contract_entry) off =
  put_int b e.Msg.ce_instance off
  |> put_int b e.Msg.ce_round
  |> Batch.write b e.Msg.ce_batch
  |> put_ints b e.Msg.ce_cert_replicas

let write b msg =
  match msg with
  | Msg.Client_request { instance; batch } ->
      tag b '\x01' |> put_int b instance |> Batch.write b batch
  | Msg.Pre_prepare { instance; view; seq; batch } ->
      tag b '\x02' |> put_int b instance |> put_int b view |> put_int b seq
      |> Batch.write b batch
  | Msg.Prepare { instance; view; seq; digest } ->
      tag b '\x03' |> put_int b instance |> put_int b view |> put_int b seq
      |> put_string b digest
  | Msg.Commit { instance; view; seq; digest } ->
      tag b '\x04' |> put_int b instance |> put_int b view |> put_int b seq
      |> put_string b digest
  | Msg.Checkpoint { instance; seq; state_digest } ->
      tag b '\x05' |> put_int b instance |> put_int b seq
      |> put_string b state_digest
  | Msg.View_change { instance; new_view; blamed; round; last_exec; signature } ->
      tag b '\x06' |> put_int b instance |> put_int b new_view |> put_int b blamed
      |> put_int b round |> put_int b last_exec |> put_string b signature
  | Msg.New_view { instance; view; reproposals } ->
      tag b '\x07' |> put_int b instance |> put_int b view
      |> put_list b put_reproposal reproposals
  | Msg.Order_request { instance; view; seq; batch; history } ->
      tag b '\x08' |> put_int b instance |> put_int b view |> put_int b seq
      |> Batch.write b batch |> put_string b history
  | Msg.Commit_cert { cc_instance; cc_seq; cc_client; cc_digest; cc_replicas } ->
      tag b '\x09' |> put_int b cc_instance |> put_int b cc_seq
      |> put_int b cc_client |> put_string b cc_digest |> put_ints b cc_replicas
  | Msg.Local_commit { instance; seq; client } ->
      tag b '\x0a' |> put_int b instance |> put_int b seq |> put_int b client
  | Msg.Hs_proposal { view; phase; seq; batch; digest } ->
      tag b '\x0b' |> put_int b view |> put_int b phase |> put_int b seq
      |> put_option b Batch.write batch
      |> put_string b digest
  | Msg.Hs_vote { view; phase; seq; digest } ->
      tag b '\x0c' |> put_int b view |> put_int b phase |> put_int b seq
      |> put_string b digest
  | Msg.Response
      { client; batch_id; round; result_digest; txn_count; speculative; history }
    ->
      tag b '\x0d' |> put_int b client |> put_int b batch_id |> put_int b round
      |> put_string b result_digest |> put_int b txn_count
      |> put_bool b speculative |> put_string b history
  | Msg.Contract { round; entries } ->
      tag b '\x0e' |> put_int b round |> put_list b put_entry entries
  | Msg.Contract_request { round; instance } ->
      tag b '\x0f' |> put_int b round |> put_int b instance
  | Msg.Instance_change { client; instance } ->
      tag b '\x10' |> put_int b client |> put_int b instance
  | Msg.View_sync { instance; view; primary; kmal; cert } ->
      tag b '\x11' |> put_int b instance |> put_int b view |> put_int b primary
      |> put_ints b kmal |> put_list b put_vote cert
  | Msg.Snapshot_request { sr_seq; fetch } ->
      tag b '\x12' |> put_int b sr_seq |> put_bool b fetch
  | Msg.Snapshot_reply { sp_seq; sp_head; sp_kv; sp_attesters; sp_payload } ->
      tag b '\x13' |> put_int b sp_seq |> put_string b sp_head
      |> put_string b sp_kv |> put_ints b sp_attesters
      |> put_option b put_string sp_payload

let encode msg =
  let b = Bytes.create (encoded_size msg) in
  let stop = write b msg in
  assert (stop = Bytes.length b);
  Bytes.unsafe_to_string b

(* --- reader --------------------------------------------------------------- *)

let int = Wire.int
let string r = Wire.string r ~max:max_int
let int_list r = Wire.int_list r ~max:max_list
let list r f = List.init (Wire.count r ~max:max_list "list length") (fun _ -> f r)
let option r f = if Wire.bool r then Some (f r) else None

let read_vote r =
  let bv_accuser = int r in
  let bv_round = int r in
  { Msg.bv_accuser; bv_round; bv_sig = string r }

let read_entry r =
  let ce_instance = int r in
  let ce_round = int r in
  let ce_batch = Batch.read r in
  { Msg.ce_instance; ce_round; ce_batch; ce_cert_replicas = int_list r }

let read r =
  match Wire.byte r with
  | '\x01' ->
      let instance = int r in
      Msg.Client_request { instance; batch = Batch.read r }
  | '\x02' ->
      let instance = int r in
      let view = int r in
      let seq = int r in
      Msg.Pre_prepare { instance; view; seq; batch = Batch.read r }
  | '\x03' ->
      let instance = int r in
      let view = int r in
      let seq = int r in
      Msg.Prepare { instance; view; seq; digest = string r }
  | '\x04' ->
      let instance = int r in
      let view = int r in
      let seq = int r in
      Msg.Commit { instance; view; seq; digest = string r }
  | '\x05' ->
      let instance = int r in
      let seq = int r in
      Msg.Checkpoint { instance; seq; state_digest = string r }
  | '\x06' ->
      let instance = int r in
      let new_view = int r in
      let blamed = int r in
      let round = int r in
      let last_exec = int r in
      Msg.View_change
        { instance; new_view; blamed; round; last_exec; signature = string r }
  | '\x07' ->
      let instance = int r in
      let view = int r in
      let reproposals =
        list r (fun r ->
            let seq = int r in
            (seq, Batch.read r))
      in
      Msg.New_view { instance; view; reproposals }
  | '\x08' ->
      let instance = int r in
      let view = int r in
      let seq = int r in
      let batch = Batch.read r in
      Msg.Order_request { instance; view; seq; batch; history = string r }
  | '\x09' ->
      let cc_instance = int r in
      let cc_seq = int r in
      let cc_client = int r in
      let cc_digest = string r in
      Msg.Commit_cert
        { cc_instance; cc_seq; cc_client; cc_digest; cc_replicas = int_list r }
  | '\x0a' ->
      let instance = int r in
      let seq = int r in
      Msg.Local_commit { instance; seq; client = int r }
  | '\x0b' ->
      let view = int r in
      let phase = int r in
      let seq = int r in
      let batch = option r Batch.read in
      Msg.Hs_proposal { view; phase; seq; batch; digest = string r }
  | '\x0c' ->
      let view = int r in
      let phase = int r in
      let seq = int r in
      Msg.Hs_vote { view; phase; seq; digest = string r }
  | '\x0d' ->
      let client = int r in
      let batch_id = int r in
      let round = int r in
      let result_digest = string r in
      let txn_count = int r in
      let speculative = Wire.bool r in
      Msg.Response
        { client; batch_id; round; result_digest; txn_count; speculative;
          history = string r }
  | '\x0e' ->
      let round = int r in
      Msg.Contract { round; entries = list r read_entry }
  | '\x0f' ->
      let round = int r in
      Msg.Contract_request { round; instance = int r }
  | '\x10' ->
      let client = int r in
      Msg.Instance_change { client; instance = int r }
  | '\x11' ->
      let instance = int r in
      let view = int r in
      let primary = int r in
      let kmal = int_list r in
      Msg.View_sync { instance; view; primary; kmal; cert = list r read_vote }
  | '\x12' ->
      let sr_seq = int r in
      Msg.Snapshot_request { sr_seq; fetch = Wire.bool r }
  | '\x13' ->
      let sp_seq = int r in
      let sp_head = string r in
      let sp_kv = string r in
      let sp_attesters = int_list r in
      let sp_payload = option r string in
      Msg.Snapshot_reply { sp_seq; sp_head; sp_kv; sp_attesters; sp_payload }
  | c -> raise (Wire.Malformed (Printf.sprintf "unknown tag 0x%02x" (Char.code c)))

let decode = Wire.decode read
