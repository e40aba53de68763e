(* Message vocabulary tests: the §7.2 size model, batch signing. *)

module Msg = Rcc_messages.Msg
module Batch = Rcc_messages.Batch

let check = Alcotest.check

let rng = Rcc_common.Rng.create 17
let secret, public = Rcc_crypto.Signature.keygen rng
let other_secret, _ = Rcc_crypto.Signature.keygen rng

let batch_of ntxns =
  Batch.create ~id:1 ~client:0
    ~txns:(Array.init ntxns (fun i -> Rcc_workload.Txn.{ key = i; op = Write i }))
    ~secret

let test_paper_sizes () =
  let b100 = batch_of 100 in
  check Alcotest.int "pre-prepare @ batch 100" 5400
    (Msg.size (Msg.Pre_prepare { instance = 0; view = 0; seq = 0; batch = b100 }));
  check Alcotest.int "order-request @ batch 100" 5400
    (Msg.size
       (Msg.Order_request { instance = 0; view = 0; seq = 0; batch = b100; history = "" }));
  check Alcotest.int "response @ batch 100" 1748
    (Msg.size
       (Msg.Response
          {
            client = 0;
            batch_id = 0;
            round = 0;
            result_digest = "";
            txn_count = 100;
            speculative = false;
            history = "";
          }));
  check Alcotest.int "prepare" 250
    (Msg.size (Msg.Prepare { instance = 0; view = 0; seq = 0; digest = "" }));
  check Alcotest.int "commit" 250
    (Msg.size (Msg.Commit { instance = 0; view = 0; seq = 0; digest = "" }));
  check Alcotest.int "view-change" 250
    (Msg.size
       (Msg.View_change
          { instance = 0; new_view = 1; blamed = 0; round = 0; last_exec = 0;
            signature = "" }));
  (* A view-sync grows with its certificate: 80 B per vote over the header. *)
  check Alcotest.int "view-sync" (250 + (2 * 80))
    (Msg.size
       (Msg.View_sync
          {
            instance = 0;
            view = 1;
            primary = 3;
            kmal = [];
            cert =
              [
                { Msg.bv_accuser = 1; bv_round = 0; bv_sig = "" };
                { Msg.bv_accuser = 2; bv_round = 0; bv_sig = "" };
              ];
          }))

let test_contract_size_ballpark () =
  (* Figure 12 setup: z=11 entries, batch 100, 2f+1 = 21 certifiers -> the
     paper reports ~175 KB. *)
  let entries =
    List.init 11 (fun i ->
        {
          Msg.ce_instance = i;
          ce_round = 0;
          ce_batch = batch_of 100;
          ce_cert_replicas = List.init 21 (fun r -> r);
        })
  in
  let size = Msg.size (Msg.Contract { round = 0; entries }) in
  check Alcotest.bool "contract ~175KB" true (size > 150_000 && size < 200_000)

let test_hs_proposal_size () =
  let with_batch =
    Msg.size (Msg.Hs_proposal { view = 0; phase = 0; seq = 0; batch = Some (batch_of 100); digest = "" })
  in
  let without =
    Msg.size (Msg.Hs_proposal { view = 0; phase = 1; seq = 0; batch = None; digest = "" })
  in
  check Alcotest.int "phase 0 carries batch" 5400 with_batch;
  check Alcotest.int "later phases small" 250 without

let encode_all txns =
  String.concat "" (Array.to_list (Array.map Rcc_workload.Txn.encode txns))

let test_batch_verify () =
  let b = batch_of 10 in
  check Alcotest.bool "valid batch verifies" true (Batch.verify b ~public);
  let forged =
    { b with Batch.payload = Rcc_workload.Txn.(encode { key = 9; op = Read }) }
  in
  check Alcotest.bool "tampered txns rejected" false (Batch.verify forged ~public);
  let resigned =
    Batch.create ~id:1 ~client:0 ~txns:(Batch.txns b) ~secret:other_secret
  in
  check Alcotest.bool "wrong signer rejected" false (Batch.verify resigned ~public)

(* [verify] trusts a record's own seal only while its [payload] and
   [digest] are physically the pair [create] hashed. *)
let test_batch_seal () =
  let b = batch_of 10 in
  let forged_txns = Batch.txns b in
  forged_txns.(0) <- Rcc_workload.Txn.{ key = 0; op = Write 99 };
  let forged = encode_all forged_txns in
  check Alcotest.bool "{b with payload} rejected" false
    (Batch.verify { b with Batch.payload = forged } ~public);
  check Alcotest.bool "{b with digest} rejected" false
    (Batch.verify
       { b with Batch.digest = Batch.digest_of_txns forged_txns }
       ~public);
  check Alcotest.bool "consistent payload and digest, old signature" false
    (Batch.verify
       {
         b with
         Batch.payload = forged;
         digest = Batch.digest_of_txns forged_txns;
       }
       ~public);
  check Alcotest.bool "equal copy of the payload recomputed and accepted" true
    (Batch.verify
       { b with Batch.payload = Bytes.to_string (Bytes.of_string b.Batch.payload) }
       ~public);
  let parts payload digest =
    Batch.of_parts ~id:b.Batch.id ~client:b.Batch.client ~payload ~digest
      ~signature:b.Batch.signature
  in
  check Alcotest.bool "decoded batch verifies" true
    (Batch.verify (parts b.Batch.payload b.Batch.digest) ~public);
  check Alcotest.bool "decoded batch with a stale digest rejected" false
    (Batch.verify (parts forged b.Batch.digest) ~public);
  check Alcotest.bool "decoded batch compares equal to the original" true
    (parts b.Batch.payload b.Batch.digest = b)

let test_batch_payload () =
  let txns = Array.init 7 (fun i -> Rcc_workload.Txn.{ key = i; op = Write i }) in
  let b = batch_of 7 in
  check Alcotest.int "24 bytes per txn" (7 * Rcc_workload.Txn.encoded_size)
    (String.length b.Batch.payload);
  check Alcotest.int "txn count" 7 (Batch.txn_count b);
  check Alcotest.string "digest covers exactly the payload"
    (Rcc_common.Bytes_util.hex b.Batch.digest)
    (Rcc_crypto.Sha256.hex_digest b.Batch.payload);
  check Alcotest.string "payload is the txns' encodings" (encode_all txns)
    b.Batch.payload;
  check Alcotest.string "null batch has none" ""
    (Batch.null ~round:3).Batch.payload

let test_null_batch () =
  let null = Batch.null ~round:7 in
  check Alcotest.bool "is_null" true (Batch.is_null null);
  check Alcotest.bool "regular batch not null" false (Batch.is_null (batch_of 1));
  check Alcotest.int "no txns" 0 (Batch.txn_count null);
  let null2 = Batch.null ~round:8 in
  check Alcotest.bool "distinct rounds, distinct digests" false
    (String.equal null.Batch.digest null2.Batch.digest)

(* --- payload batch == record model ---------------------------------------

   A batch keeps its transactions only as [payload]. The model is the
   record array they were made from: its encodings, its key sets as
   [Batch.compute_key_sets] built them from records, and [Txn.apply] of
   each record. *)

module Txn = Rcc_workload.Txn
module Kv = Rcc_storage.Kv_store
module Codec = Rcc_messages.Codec

let model_key_sets txns =
  let keys want =
    Array.to_list txns
    |> List.filter_map (fun (t : Txn.t) ->
           match t.op with
           | Txn.Read when not want -> Some t.key
           | Txn.Write _ when want -> Some t.key
           | Txn.Read | Txn.Write _ -> None)
    |> List.sort_uniq Int.compare |> Array.of_list
  in
  { Batch.rset = keys false; wset = keys true }

let gen_txn =
  QCheck2.Gen.(
    let* key = oneof [ int_range 0 40; int_range 0 5_000; int ] in
    let* write = bool in
    if write then
      let+ v = oneof [ int_range 0 1_000_000; int ] in
      Txn.{ key; op = Write v }
    else return Txn.{ key; op = Read })

(* A created batch, a null one, or a created one sent through the codec:
   with the records it was made from ([||] for a null batch). *)
let gen_case =
  QCheck2.Gen.(
    let* txns = array_size (int_range 0 40) gen_txn and* how = int_range 0 9 in
    let created = Batch.create ~id:3 ~client:1 ~txns ~secret in
    return
      (match how with
      | 0 -> ("null", [||], Batch.null ~round:(Array.length txns))
      | 1 | 2 | 3 | 4 -> ("created", txns, created)
      | _ -> (
          match
            Codec.decode
              (Codec.encode (Msg.Client_request { instance = 0; batch = created }))
          with
          | Ok (Msg.Client_request { batch; _ }) -> ("decoded", txns, batch)
          | Ok _ | Error _ -> failwith "codec roundtrip failed")))

let payload_model =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:300 ~name:"batch: payload batch == record model"
       ~print:(fun (how, txns, _) ->
         Printf.sprintf "%s batch of %s" how
           (String.concat " " (Array.to_list (Array.map (Format.asprintf "%a" Txn.pp) txns))))
       gen_case
       (fun (how, txns, b) ->
         let fail what = QCheck2.Test.fail_reportf "%s: %s" how what in
         let store_digest apply =
           let kv = Kv.create () in
           Kv.init_records kv ~count:16;
           apply kv;
           Kv.state_digest kv
         in
         if b.Batch.payload <> encode_all txns then fail "payload";
         if Batch.txn_count b <> Array.length txns then fail "txn_count";
         if not (Array.for_all2 Txn.equal (Batch.txns b) txns) then fail "txns";
         if Batch.key_sets b <> model_key_sets txns then fail "key_sets";
         if
           store_digest (fun kv -> Batch.apply kv b)
           <> store_digest (fun kv -> Array.iter (fun t -> ignore (Txn.apply kv t)) txns)
         then fail "state_digest";
         (match
            Codec.decode (Codec.encode (Msg.Pre_prepare { instance = 1; view = 0; seq = 2; batch = b }))
          with
         | Ok (Msg.Pre_prepare { batch = d; _ }) ->
             if d <> { b with Batch.keys = None } then fail "codec roundtrip";
             if Batch.verify d ~public <> Batch.verify b ~public then
               fail "verify after decode"
         | Ok _ | Error _ -> fail "codec decode");
         if Batch.verify b ~public <> not (Batch.is_null b) then fail "verify";
         true))

let test_instance_of_and_kind () =
  check Alcotest.(option int) "prepare instance" (Some 3)
    (Msg.instance_of (Msg.Prepare { instance = 3; view = 0; seq = 0; digest = "" }));
  check Alcotest.(option int) "hs proposal no instance" None
    (Msg.instance_of (Msg.Hs_proposal { view = 0; phase = 0; seq = 0; batch = None; digest = "" }));
  check Alcotest.string "kind" "pre_prepare"
    (Msg.kind (Msg.Pre_prepare { instance = 0; view = 0; seq = 0; batch = batch_of 1 }));
  (* pp is total over the variant *)
  let msgs =
    [
      Msg.Prepare { instance = 0; view = 1; seq = 2; digest = "" };
      Msg.Response
        {
          client = 1;
          batch_id = 2;
          round = 0;
          result_digest = "";
          txn_count = 1;
          speculative = true;
          history = "";
        };
      Msg.Contract_request { round = 0; instance = 0 };
    ]
  in
  List.iter (fun m -> check Alcotest.bool "pp total" true
                (String.length (Format.asprintf "%a" Msg.pp m) > 0)) msgs

(* Wire sizes are monotone in the batch size for batch-carrying messages
   and independent of it for digest-only ones. *)
let size_monotone =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:100 ~name:"msg: size monotone in batch size"
       QCheck2.Gen.(pair (int_range 1 400) (int_range 1 400))
       (fun (a, b) ->
         let small = min a b and large = max a b in
         let pp n =
           Msg.size (Msg.Pre_prepare { instance = 0; view = 0; seq = 0; batch = batch_of n })
         in
         let prep _n =
           Msg.size (Msg.Prepare { instance = 0; view = 0; seq = 0; digest = "" })
         in
         pp small <= pp large && prep small = prep large))

let test_batch_digest_matches_txns () =
  let b = batch_of 5 in
  check Alcotest.string "digest = digest_of_txns"
    (Rcc_common.Bytes_util.hex (Batch.digest_of_txns (Batch.txns b)))
    (Rcc_common.Bytes_util.hex b.Batch.digest)

let suite =
  ( "messages",
    [
      Alcotest.test_case "paper sizes (§7.2)" `Quick test_paper_sizes;
      Alcotest.test_case "contract size" `Quick test_contract_size_ballpark;
      Alcotest.test_case "hs proposal size" `Quick test_hs_proposal_size;
      Alcotest.test_case "batch verify" `Quick test_batch_verify;
      Alcotest.test_case "batch verify seal" `Quick test_batch_seal;
      Alcotest.test_case "batch payload" `Quick test_batch_payload;
      Alcotest.test_case "null batch" `Quick test_null_batch;
      Alcotest.test_case "instance_of/kind/pp" `Quick test_instance_of_and_kind;
      size_monotone;
      Alcotest.test_case "batch digest" `Quick test_batch_digest_matches_txns;
      payload_model;
    ] )
