(* Wire codec tests: every constructor round-trips; corrupted and
   truncated inputs are rejected with errors, not exceptions. *)

module Msg = Rcc_messages.Msg
module Codec = Rcc_messages.Codec
module Batch = Rcc_messages.Batch

let check = Alcotest.check
let qtest ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let rng = Rcc_common.Rng.create 55
let secret, _ = Rcc_crypto.Signature.keygen rng

(* --- generators --------------------------------------------------------- *)

let gen_txn =
  QCheck2.Gen.(
    let* key = int_range 0 1_000_000 in
    let* write = bool in
    if write then
      let+ v = int_range 0 1_000_000 in
      Rcc_workload.Txn.{ key; op = Write v }
    else return Rcc_workload.Txn.{ key; op = Read })

let gen_batch =
  QCheck2.Gen.(
    let* id = int_range (-100) 1_000_000 in
    let* client = int_range (-1) 1_000 in
    let+ txns = array_size (int_range 0 8) gen_txn in
    { (Batch.create ~id ~client:(max client 0) ~txns ~secret) with Batch.client })

let gen_digest = QCheck2.Gen.(map Rcc_crypto.Sha256.digest string)
let gen_small = QCheck2.Gen.int_range 0 10_000
let gen_ids = QCheck2.Gen.(list_size (int_range 0 10) (int_range 0 100))

let gen_msg =
  QCheck2.Gen.(
    oneof
      [
        (let* instance = gen_small and* batch = gen_batch in
         return (Msg.Client_request { instance; batch }));
        (let* instance = gen_small and* view = gen_small and* seq = gen_small
         and* batch = gen_batch in
         return (Msg.Pre_prepare { instance; view; seq; batch }));
        (let* instance = gen_small and* view = gen_small and* seq = gen_small
         and* digest = gen_digest in
         return (Msg.Prepare { instance; view; seq; digest }));
        (let* instance = gen_small and* view = gen_small and* seq = gen_small
         and* digest = gen_digest in
         return (Msg.Commit { instance; view; seq; digest }));
        (let* instance = gen_small and* seq = gen_small and* state_digest = gen_digest in
         return (Msg.Checkpoint { instance; seq; state_digest }));
        (let* instance = gen_small and* new_view = gen_small and* blamed = gen_small
         and* round = gen_small and* signature = gen_digest in
         return
           (Msg.View_change
              { instance; new_view; blamed; round; last_exec = round - 1; signature }));
        (let* instance = gen_small and* view = gen_small
         and* reproposals = list_size (int_range 0 3) (pair gen_small gen_batch) in
         return (Msg.New_view { instance; view; reproposals }));
        (let* instance = gen_small and* view = gen_small and* seq = gen_small
         and* batch = gen_batch and* history = gen_digest in
         return (Msg.Order_request { instance; view; seq; batch; history }));
        (let* cc_instance = gen_small and* cc_seq = gen_small
         and* cc_client = gen_small
         and* cc_digest = gen_digest and* cc_replicas = gen_ids in
         return
           (Msg.Commit_cert
              { cc_instance; cc_seq; cc_client; cc_digest; cc_replicas }));
        (let* instance = gen_small and* seq = gen_small and* client = gen_small in
         return (Msg.Local_commit { instance; seq; client }));
        (let* view = gen_small and* phase = int_range 0 3 and* seq = gen_small
         and* batch = option gen_batch and* digest = gen_digest in
         return (Msg.Hs_proposal { view; phase; seq; batch; digest }));
        (let* view = gen_small and* phase = int_range 0 9 and* seq = gen_small
         and* digest = gen_digest in
         return (Msg.Hs_vote { view; phase; seq; digest }));
        (let* client = gen_small and* batch_id = gen_small and* round = gen_small
         and* result_digest = gen_digest and* txn_count = int_range 0 800
         and* speculative = bool and* history = gen_digest in
         return
           (Msg.Response
              { client; batch_id; round; result_digest; txn_count; speculative; history }));
        (let* round = gen_small
         and* entries =
           list_size (int_range 0 3)
             (let* ce_instance = gen_small and* ce_round = gen_small
              and* ce_batch = gen_batch and* ce_cert_replicas = gen_ids in
              return (Msg.{ ce_instance; ce_round; ce_batch; ce_cert_replicas }))
         in
         return (Msg.Contract { round; entries }));
        (let* round = gen_small and* instance = gen_small in
         return (Msg.Contract_request { round; instance }));
        (let* instance = gen_small in
         let* round = gen_small
         and* max_seen = int_range (-1) 1_000_000
         and* entries =
           list_size (int_range 0 3)
             (let* ce_round = gen_small and* ce_batch = gen_batch
              and* ce_cert_replicas = gen_ids in
              return
                Msg.{ ce_instance = instance; ce_round; ce_batch; ce_cert_replicas })
         in
         return (Msg.Contract_reply { instance; round; max_seen; entries }));
        (let* client = gen_small and* instance = gen_small in
         return (Msg.Instance_change { client; instance }));
        (let* instance = gen_small and* view = gen_small and* primary = gen_small
         and* kmal = gen_ids
         and* cert =
           list_size (int_range 0 4)
             (let* bv_accuser = gen_small and* bv_round = gen_small
              and* bv_sig = gen_digest in
              return Msg.{ bv_accuser; bv_round; bv_sig })
         in
         return (Msg.View_sync { instance; view; primary; kmal; cert }));
        (let* sr_seq = gen_small and* fetch = bool in
         return (Msg.Snapshot_request { sr_seq; fetch }));
        (let* sp_seq = gen_small and* sp_head = gen_digest
         and* sp_kv = oneof [ return ""; gen_digest ]
         and* sp_attesters = gen_ids
         and* sp_payload = option string in
         return
           (Msg.Snapshot_reply { sp_seq; sp_head; sp_kv; sp_attesters; sp_payload }));
      ])

(* Structural equality is fine: messages are pure data. *)
let roundtrip =
  qtest ~count:500 "codec: decode . encode = id" gen_msg (fun msg ->
      match Codec.decode (Codec.encode msg) with
      | Ok msg' -> msg = msg'
      | Error _ -> false)

let truncation_rejected =
  qtest ~count:200 "codec: truncations rejected" gen_msg (fun msg ->
      let s = Codec.encode msg in
      let ok = ref true in
      (* Check a few prefixes including the empty one. *)
      List.iter
        (fun frac ->
          let len = String.length s * frac / 10 in
          if len < String.length s then
            match Codec.decode (String.sub s 0 len) with
            | Ok _ -> ok := false
            | Error _ -> ())
        [ 0; 3; 7; 9 ];
      !ok)

(* Fuzz: arbitrary bytes must decode to an error, never raise. *)
let fuzz_never_raises =
  qtest ~count:500 "codec: random bytes never raise" QCheck2.Gen.string
    (fun junk ->
      match Codec.decode junk with Ok _ | Error _ -> true)

(* Mutation fuzz: flip one byte of a valid encoding; decoding must either
   fail cleanly or produce some (possibly different) message — no
   exceptions, no crashes. *)
let mutation_never_raises =
  qtest ~count:300 "codec: single-byte mutations never raise"
    QCheck2.Gen.(pair gen_msg (pair small_nat small_nat))
    (fun (msg, (pos_seed, delta)) ->
      let s = Bytes.of_string (Codec.encode msg) in
      let pos = pos_seed mod Bytes.length s in
      Bytes.set s pos
        (Char.chr ((Char.code (Bytes.get s pos) + 1 + (delta mod 255)) land 0xff));
      match Codec.decode (Bytes.to_string s) with Ok _ | Error _ -> true)

let test_trailing_bytes_rejected () =
  let msg = Msg.Contract_request { round = 3; instance = 1 } in
  let s = Codec.encode msg ^ "xx" in
  check Alcotest.bool "trailing bytes" true (Result.is_error (Codec.decode s))

let test_unknown_tag_rejected () =
  check Alcotest.bool "unknown tag" true
    (Result.is_error (Codec.decode "\xff\x00\x00"));
  check Alcotest.bool "empty" true (Result.is_error (Codec.decode ""))

let test_batch_payload_survives () =
  let txns = Array.init 5 (fun i -> Rcc_workload.Txn.{ key = i; op = Write (i * i) }) in
  let batch = Batch.create ~id:7 ~client:3 ~txns ~secret in
  let msg = Msg.Pre_prepare { instance = 1; view = 2; seq = 3; batch } in
  match Codec.decode (Codec.encode msg) with
  | Ok (Msg.Pre_prepare { batch = b; _ }) ->
      check Alcotest.int "txn count" 5 (Batch.txn_count b);
      check Alcotest.bool "txns equal" true
        (Array.for_all2 Rcc_workload.Txn.equal txns (Batch.txns b));
      check Alcotest.string "digest survives" batch.Batch.digest b.Batch.digest;
      check Alcotest.string "signature survives" batch.Batch.signature b.Batch.signature
  | Ok _ | Error _ -> Alcotest.fail "wrong decode"

(* A read whose value field is not zero is no encoding [Txn.encode_into]
   writes. When a batch decoded into records it lost that value, so its
   re-encoding missed the digest the client signed and [verify] failed;
   a batch that keeps the bytes it arrived as must refuse them at decode
   instead, even under a valid digest and signature. *)
let test_noncanonical_read_rejected () =
  let module Txn = Rcc_workload.Txn in
  let u64 v = Rcc_common.Bytes_util.u64_string (Int64.of_int v) in
  let write = Txn.encode { key = 4; op = Write 8 } in
  let msg payload =
    let digest = Rcc_crypto.Sha256.digest payload in
    let batch =
      Batch.of_parts ~id:1 ~client:2 ~payload ~digest
        ~signature:(Rcc_crypto.Signature.sign secret digest)
    in
    Codec.encode (Msg.Client_request { instance = 0; batch })
  in
  let canonical = write ^ u64 7 ^ u64 0 ^ u64 0 in
  check Alcotest.bool "canonical read decodes" true
    (Result.is_ok (Codec.decode (msg canonical)));
  check Alcotest.bool "read carrying a value rejected" true
    (Result.is_error (Codec.decode (msg (write ^ u64 7 ^ u64 0 ^ u64 1))))

let test_encoded_size () =
  let msg = Msg.Local_commit { instance = 0; seq = 1; client = 2 } in
  check Alcotest.int "encoded_size matches" (String.length (Codec.encode msg))
    (Codec.encoded_size msg)

(* One message of every constructor, with fixed fields: batches with and
   without txns (a null one too), optional batch and payload both ways,
   empty and non-empty lists. The SHA-256 of the concatenated encodings
   was recorded before the codec moved onto the shared wire layer, and
   re-recorded when CONTRACT-REPLY (tag 0x14) joined the list, with every
   other message's bytes unchanged; a writer and reader changed together
   would still round-trip, so this pins the bytes themselves. *)
let golden_msgs () =
  let batch id n =
    Batch.create ~id ~client:(id mod 7)
      ~txns:
        (Array.init n (fun i ->
             if i mod 3 = 0 then Rcc_workload.Txn.{ key = (id * 10) + i; op = Read }
             else Rcc_workload.Txn.{ key = (id * 10) + i; op = Write (i * 1000) }))
      ~secret
  in
  let d tag = Rcc_crypto.Sha256.digest tag in
  [
    Msg.Client_request { instance = 1; batch = batch 1 4 };
    Msg.Pre_prepare { instance = 2; view = 3; seq = 4; batch = batch 2 0 };
    Msg.Prepare { instance = 5; view = 6; seq = 7; digest = d "p" };
    Msg.Commit { instance = 8; view = 9; seq = 10; digest = d "c" };
    Msg.Checkpoint { instance = 11; seq = 12; state_digest = d "k" };
    Msg.View_change
      { instance = 13; new_view = 14; blamed = 15; round = 16; last_exec = 15;
        signature = d "v" };
    Msg.New_view
      { instance = 17; view = 18;
        reproposals = [ (19, batch 3 2); (20, Batch.null ~round:20) ] };
    Msg.Order_request
      { instance = 21; view = 22; seq = 23; batch = batch 4 5; history = d "h" };
    Msg.Commit_cert
      { cc_instance = 24; cc_seq = 25; cc_client = 26; cc_digest = d "cc";
        cc_replicas = [ 0; 2; 3 ] };
    Msg.Local_commit { instance = 27; seq = 28; client = 29 };
    Msg.Hs_proposal { view = 30; phase = 1; seq = 31; batch = Some (batch 5 3); digest = d "hp" };
    Msg.Hs_proposal { view = 32; phase = 2; seq = 33; batch = None; digest = "" };
    Msg.Hs_vote { view = 34; phase = 3; seq = 35; digest = d "hv" };
    Msg.Response
      { client = 36; batch_id = 37; round = 38; result_digest = d "r";
        txn_count = 100; speculative = true; history = d "rh" };
    Msg.Response
      { client = 39; batch_id = -40; round = 41; result_digest = "";
        txn_count = 0; speculative = false; history = "" };
    Msg.Contract
      { round = 42;
        entries =
          [
            { Msg.ce_instance = 0; ce_round = 42; ce_batch = batch 6 1;
              ce_cert_replicas = [ 1; 2; 3 ] };
            { Msg.ce_instance = 1; ce_round = 42; ce_batch = Batch.null ~round:42;
              ce_cert_replicas = [] };
          ] };
    Msg.Contract { round = 43; entries = [] };
    Msg.Contract_request { round = 44; instance = 45 };
    Msg.Contract_reply
      { instance = 1; round = 57; max_seen = 59;
        entries =
          [ { Msg.ce_instance = 1; ce_round = 57; ce_batch = batch 7 2;
              ce_cert_replicas = [ 0; 2 ] } ] };
    Msg.Contract_reply { instance = 2; round = 58; max_seen = -1; entries = [] };
    Msg.Instance_change { client = 46; instance = 47 };
    Msg.View_sync
      { instance = 48; view = 49; primary = 50; kmal = [ 3; 1 ];
        cert =
          [ { Msg.bv_accuser = 2; bv_round = 51; bv_sig = d "bv" };
            { Msg.bv_accuser = 4; bv_round = 52; bv_sig = "" } ] };
    Msg.Snapshot_request { sr_seq = 53; fetch = true };
    Msg.Snapshot_request { sr_seq = 54; fetch = false };
    Msg.Snapshot_reply
      { sp_seq = 55; sp_head = d "sh"; sp_kv = d "sk"; sp_attesters = [ 0; 1 ];
        sp_payload = Some "RCCS1\nblob" };
    Msg.Snapshot_reply
      { sp_seq = 56; sp_head = d "sh2"; sp_kv = ""; sp_attesters = [];
        sp_payload = None };
  ]

let test_golden_bytes () =
  let msgs = golden_msgs () in
  let encoded = List.map Codec.encode msgs in
  check Alcotest.string "sha256 of every constructor's encoding"
    "fda4e4ec52a5c66a838d60de53234c15bee8cd3f8950ed2f0f70d1965bdae2c4"
    (Rcc_crypto.Sha256.hex_digest (String.concat "" encoded));
  check Alcotest.int "total bytes" 3092
    (List.fold_left (fun acc s -> acc + String.length s) 0 encoded);
  List.iter2
    (fun msg s ->
      check Alcotest.int "encoded_size" (String.length s) (Codec.encoded_size msg);
      (* Re-encoded, not compared: a null batch's cached key sets are not
         part of the encoding. *)
      check Alcotest.bool "round trip" true
        (Result.map Codec.encode (Codec.decode s) = Ok s))
    msgs encoded

(* A length field of 0x3FFF_FFFF_FFFF_FFFF (max_int once read) made
   [pos + len] wrap around, so the bounds check passed and [String.sub]
   raised. Each probe puts that value in a different length or count
   field. *)
let test_max_length_probe () =
  let huge = "\x3f\xff\xff\xff\xff\xff\xff\xff" in
  let zeros n = String.make (8 * n) '\x00' in
  let probe label ~len bytes =
    check Alcotest.int (label ^ ": probe length") len (String.length bytes);
    check Alcotest.bool (label ^ ": oversized length is an error") true
      (match Codec.decode bytes with
      | Error _ -> true
      | Ok _ -> false
      | exception e -> Alcotest.failf "%s raised %s" label (Printexc.to_string e))
  in
  (* A PREPARE's digest length. *)
  probe "prepare digest" ~len:33 ("\x03" ^ zeros 3 ^ huge);
  (* A CONTRACT-REPLY's entry count, after instance, round and max_seen. *)
  probe "contract-reply entries" ~len:33 ("\x14" ^ zeros 3 ^ huge);
  (* The txn count of the batch inside a CONTRACT-REPLY's one entry,
     after the entry's instance and round and the batch's id and client. *)
  probe "contract-reply batch txns" ~len:73
    ("\x14" ^ zeros 3 ^ "\x00\x00\x00\x00\x00\x00\x00\x01" ^ zeros 4 ^ huge)

let suite =
  ( "codec",
    [
      roundtrip;
      truncation_rejected;
      fuzz_never_raises;
      mutation_never_raises;
      Alcotest.test_case "trailing bytes" `Quick test_trailing_bytes_rejected;
      Alcotest.test_case "unknown tag" `Quick test_unknown_tag_rejected;
      Alcotest.test_case "batch payload" `Quick test_batch_payload_survives;
      Alcotest.test_case "non-canonical read rejected" `Quick
        test_noncanonical_read_rejected;
      Alcotest.test_case "encoded_size" `Quick test_encoded_size;
      Alcotest.test_case "golden bytes" `Quick test_golden_bytes;
      Alcotest.test_case "max-length probe" `Quick test_max_length_probe;
    ] )
