(* Storage tests: KV store, blocks, ledger hash chain, txn table. *)

module Kv = Rcc_storage.Kv_store
module Block = Rcc_storage.Block
module Ledger = Rcc_storage.Ledger
module Txn_table = Rcc_storage.Txn_table

let check = Alcotest.check
let qtest ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* --- kv store ----------------------------------------------------------------- *)

let test_kv_basic () =
  let store = Kv.create () in
  Kv.init_records store ~count:10;
  check Alcotest.int "size" 10 (Kv.size store);
  check Alcotest.(option int) "initial value" (Some 21) (Kv.read store 3);
  Kv.write store ~key:3 ~value:99;
  check Alcotest.(option int) "after write" (Some 99) (Kv.read store 3);
  check Alcotest.int "version bumped" 1 (Kv.version store 3);
  check Alcotest.int "untouched version" 0 (Kv.version store 4);
  check Alcotest.(option int) "missing key" None (Kv.read store 1000);
  check Alcotest.int "reads counted" 3 (Kv.reads_performed store);
  check Alcotest.int "writes counted" 1 (Kv.writes_performed store)

let test_kv_insert_new_key () =
  let store = Kv.create () in
  Kv.write store ~key:42 ~value:7;
  check Alcotest.(option int) "insert" (Some 7) (Kv.read store 42);
  check Alcotest.int "version of fresh insert" 1 (Kv.version store 42)

let kv_state_digest =
  qtest "kv: equal write sequences give equal digests"
    QCheck2.Gen.(list_size (int_range 0 30) (pair (int_range 0 20) small_int))
    (fun writes ->
      let a = Kv.create () and b = Kv.create () in
      List.iter
        (fun (key, value) ->
          Kv.write a ~key ~value;
          Kv.write b ~key ~value)
        writes;
      String.equal (Kv.state_digest a) (Kv.state_digest b))

let test_kv_digest_differs () =
  let a = Kv.create () and b = Kv.create () in
  Kv.write a ~key:1 ~value:1;
  Kv.write b ~key:1 ~value:2;
  check Alcotest.bool "different states, different digests" false
    (String.equal (Kv.state_digest a) (Kv.state_digest b))

(* --- blocks & ledger -------------------------------------------------------------- *)

let proof i =
  {
    Block.instance = i;
    batch_digest = Rcc_crypto.Sha256.digest (Printf.sprintf "batch-%d" i);
    certificate_digest = Rcc_crypto.Sha256.digest (Printf.sprintf "cert-%d" i);
  }

let block ~round ~prev =
  {
    Block.round;
    prev_hash = prev;
    proofs = [ proof 0; proof 1 ];
    primaries = [ 0; 1 ];
    clients = [ 5; 9 ];
  }

let test_block_hash_deterministic () =
  let b = block ~round:0 ~prev:(String.make 32 '\x00') in
  check Alcotest.string "same hash" (Rcc_common.Bytes_util.hex (Block.hash b))
    (Rcc_common.Bytes_util.hex (Block.hash b));
  let b' = { b with Block.clients = [ 5 ] } in
  check Alcotest.bool "different content, different hash" false
    (String.equal (Block.hash b) (Block.hash b'))

let test_genesis_depends_on_primaries () =
  check Alcotest.bool "genesis differs" false
    (String.equal
       (Block.genesis_hash ~primaries:[ 0; 1 ])
       (Block.genesis_hash ~primaries:[ 0; 2 ]))

let test_ledger_append_validate () =
  let ledger = Ledger.create ~primaries:[ 0; 1 ] in
  check Alcotest.int "empty" 0 (Ledger.length ledger);
  for round = 0 to 9 do
    Ledger.append_exn ledger (block ~round ~prev:(Ledger.head_hash ledger))
  done;
  check Alcotest.int "length" 10 (Ledger.length ledger);
  check Alcotest.int "next round" 10 (Ledger.next_round ledger);
  check Alcotest.bool "validates" true (Result.is_ok (Ledger.validate ledger));
  check Alcotest.bool "get round 5" true (Option.is_some (Ledger.get ledger 5));
  check Alcotest.bool "get round 99" true (Option.is_none (Ledger.get ledger 99))

let test_ledger_rejects_bad_blocks () =
  let ledger = Ledger.create ~primaries:[ 0 ] in
  Ledger.append_exn ledger (block ~round:0 ~prev:(Ledger.head_hash ledger));
  check Alcotest.bool "wrong round" true
    (Result.is_error (Ledger.append ledger (block ~round:5 ~prev:(Ledger.head_hash ledger))));
  check Alcotest.bool "wrong prev hash" true
    (Result.is_error (Ledger.append ledger (block ~round:1 ~prev:(String.make 32 'x'))))

let test_ledger_iter () =
  let ledger = Ledger.create ~primaries:[ 0 ] in
  for round = 0 to 4 do
    Ledger.append_exn ledger (block ~round ~prev:(Ledger.head_hash ledger))
  done;
  let rounds = ref [] in
  Ledger.iter ledger (fun b -> rounds := b.Block.round :: !rounds);
  check Alcotest.(list int) "iterates in order" [ 0; 1; 2; 3; 4 ] (List.rev !rounds)

(* --- txn table ---------------------------------------------------------------------- *)

let entry ~round ~instance =
  {
    Txn_table.round;
    instance;
    client = instance * 10;
    batch_digest = "d";
    response_digest = "r";
    txn_count = 7;
  }

let test_txn_table () =
  let table = Txn_table.create () in
  Txn_table.record table (entry ~round:0 ~instance:1);
  Txn_table.record table (entry ~round:0 ~instance:0);
  Txn_table.record table (entry ~round:2 ~instance:0);
  check Alcotest.int "total txns" 21 (Txn_table.total_txns table);
  check Alcotest.int "rounds" 2 (Txn_table.rounds table);
  let round0 = Txn_table.find table ~round:0 in
  check
    Alcotest.(list int)
    "instance order" [ 0; 1 ]
    (List.map (fun e -> e.Txn_table.instance) round0);
  check Alcotest.(list int) "missing round" []
    (List.map (fun e -> e.Txn_table.instance) (Txn_table.find table ~round:7))

(* --- ledger persistence ----------------------------------------------------- *)

module Ledger_io = Rcc_storage.Ledger_io

let sample_ledger () =
  let ledger = Ledger.create ~primaries:[ 0; 1 ] in
  for round = 0 to 9 do
    Ledger.append_exn ledger (block ~round ~prev:(Ledger.head_hash ledger))
  done;
  ledger

let test_ledger_io_roundtrip () =
  let ledger = sample_ledger () in
  let saved = Ledger_io.save ledger ~primaries:[ 0; 1 ] in
  match Ledger_io.load saved with
  | Error e -> Alcotest.failf "load failed: %s" e
  | Ok loaded ->
      check Alcotest.int "length" (Ledger.length ledger) (Ledger.length loaded);
      check Alcotest.string "head hash"
        (Rcc_common.Bytes_util.hex (Ledger.head_hash ledger))
        (Rcc_common.Bytes_util.hex (Ledger.head_hash loaded));
      (* The loaded ledger accepts further appends. *)
      Ledger.append_exn loaded (block ~round:10 ~prev:(Ledger.head_hash loaded));
      check Alcotest.int "appendable" 11 (Ledger.length loaded)

let test_ledger_io_rejects_corruption () =
  let ledger = sample_ledger () in
  let saved = Ledger_io.save ledger ~primaries:[ 0; 1 ] in
  check Alcotest.bool "bad magic" true
    (Result.is_error (Ledger_io.load ("XXXX" ^ saved)));
  check Alcotest.bool "truncated" true
    (Result.is_error (Ledger_io.load (String.sub saved 0 (String.length saved / 2))));
  check Alcotest.bool "trailing garbage" true
    (Result.is_error (Ledger_io.load (saved ^ "z")));
  (* Flip one byte inside a block body: the hash chain must catch it. *)
  let corrupted = Bytes.of_string saved in
  let mid = String.length saved / 2 in
  Bytes.set corrupted mid
    (Char.chr (Char.code (Bytes.get corrupted mid) lxor 0x01));
  check Alcotest.bool "bit flip detected" true
    (Result.is_error (Ledger_io.load (Bytes.to_string corrupted)));
  (* Wrong genesis parameters break the chain root. *)
  let wrong_genesis =
    Ledger_io.save ledger ~primaries:[ 0; 2 ]
  in
  check Alcotest.bool "wrong genesis rejected" true
    (Result.is_error (Ledger_io.load wrong_genesis))

let test_ledger_io_files () =
  let ledger = sample_ledger () in
  let path = Filename.temp_file "rcc-ledger" ".bin" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Ledger_io.save_file ledger ~primaries:[ 0; 1 ] ~path;
      match Ledger_io.load_file ~path with
      | Ok loaded -> check Alcotest.int "file roundtrip" 10 (Ledger.length loaded)
      | Error e -> Alcotest.failf "file load failed: %s" e);
  check Alcotest.bool "missing file is an error" true
    (Result.is_error (Ledger_io.load_file ~path:"/nonexistent/rcc.bin"))

(* A fixed 50-block ledger whose saved bytes are pinned by SHA-256; the
   digest was recorded from the Buffer-based writer the exact-size one
   replaced. *)
let test_ledger_io_golden () =
  let ledger = Ledger.create ~primaries:[ 0; 1; 2 ] in
  for round = 0 to 49 do
    Ledger.append_exn ledger
      {
        Block.round;
        prev_hash = Ledger.head_hash ledger;
        proofs = List.init (round mod 4) proof;
        primaries = [ 0; 1; 2 ];
        clients = List.init (round mod 3) (fun c -> (c * 17) + round);
      }
  done;
  check Alcotest.string "saved bytes"
    "9d1f1df0ef886c10045727df14ce43588b34ad8f198c34ad9adc56aa6d4a05d0"
    (Rcc_crypto.Sha256.hex_digest
       (Ledger_io.save ledger ~primaries:[ 0; 1; 2 ]))

(* --- snapshot encoding ---------------------------------------------------- *)

module Snapshot = Rcc_storage.Snapshot

(* The Buffer-based snapshot encoder and per-field KV digest the
   exact-size writers replaced, kept as oracles: the new code must emit
   the same bytes and the same digest. *)
module Oracle = struct
  let u64 v = Rcc_common.Bytes_util.u64_string (Int64.of_int v)
  let w_int buf v = Buffer.add_string buf (u64 v)

  let w_string buf s =
    w_int buf (String.length s);
    Buffer.add_string buf s

  let w_int_list buf l =
    w_int buf (List.length l);
    List.iter (w_int buf) l

  let write_block buf (b : Block.t) =
    w_int buf b.Block.round;
    w_string buf b.Block.prev_hash;
    w_int buf (List.length b.Block.proofs);
    List.iter
      (fun (p : Block.proof) ->
        w_int buf p.Block.instance;
        w_string buf p.Block.batch_digest;
        w_string buf p.Block.certificate_digest)
      b.Block.proofs;
    w_int_list buf b.Block.primaries;
    w_int_list buf b.Block.clients

  let encode (t : Snapshot.t) =
    let buf = Buffer.create 4096 in
    Buffer.add_string buf "RCCS1\n";
    w_int buf t.Snapshot.seq;
    w_int buf (Array.length t.Snapshot.blocks);
    Array.iter (write_block buf) t.Snapshot.blocks;
    (match t.Snapshot.kv with
    | Some entries ->
        Buffer.add_char buf '\x01';
        w_int buf (Array.length entries);
        Array.iter
          (fun (key, value, version) ->
            w_int buf key;
            w_int buf value;
            w_int buf version)
          entries
    | None -> Buffer.add_char buf '\x00');
    w_int buf (List.length t.Snapshot.replied);
    List.iter
      (fun (client, digest, round, result) ->
        w_int buf client;
        w_string buf digest;
        w_int buf round;
        w_string buf result)
      t.Snapshot.replied;
    Buffer.contents buf

  let kv_digest = function
    | None -> ""
    | Some entries ->
        let ctx = Rcc_crypto.Sha256.init () in
        Rcc_crypto.Sha256.update ctx "rcc-snapshot-kv";
        Array.iter
          (fun (key, value, version) ->
            Rcc_crypto.Sha256.update ctx (u64 key);
            Rcc_crypto.Sha256.update ctx (u64 value);
            Rcc_crypto.Sha256.update ctx (u64 version))
          entries;
        Rcc_crypto.Sha256.finalize ctx
end

(* KV sections: absent, present but empty, up to a few thousand triples
   over the whole int range, or sized around kv_digest's 256-triple
   chunks. *)
let gen_kv =
  QCheck2.Gen.(
    frequency
      [
        (1, pure None);
        (1, pure (Some [||]));
        (4, map Option.some (array_size (int_range 0 3000) (triple int int int)));
        ( 1,
          map
            (fun n -> Some (Array.init n (fun i -> (i, -i, i * 7))))
            (oneofl [ 255; 256; 257; 512 ]) );
      ])

let gen_snapshot =
  let open QCheck2.Gen in
  let digest = string_size (int_range 0 40) in
  let proof =
    map3
      (fun instance batch_digest certificate_digest ->
        { Block.instance; batch_digest; certificate_digest })
      small_nat digest digest
  in
  let ints = list_size (int_range 0 6) int in
  let block =
    map5
      (fun round prev_hash proofs primaries clients ->
        { Block.round; prev_hash; proofs; primaries; clients })
      small_nat digest
      (list_size (int_range 0 6) proof)
      ints ints
  in
  (* Empty and long reply strings both occur. *)
  let text =
    frequency
      [ (1, pure ""); (3, digest); (1, string_size (int_range 200 3000)) ]
  in
  let reply = tup4 int text small_nat text in
  map4
    (fun seq blocks kv replied -> { Snapshot.seq; blocks; kv; replied })
    small_nat
    (array_size (int_range 0 300) block)
    gen_kv
    (list_size (int_range 0 40) reply)

let snapshot_encode_oracle =
  qtest ~count:60 "snapshot: encode = Buffer oracle, encoded_size exact"
    gen_snapshot (fun snap ->
      let enc = Snapshot.encode snap in
      let buf = Bytes.make (Snapshot.encoded_size snap + 10) '#' in
      String.equal enc (Oracle.encode snap)
      && Snapshot.encoded_size snap = String.length enc
      && Snapshot.encode_into snap buf ~off:3 = 3 + String.length enc
      && String.equal (Bytes.sub_string buf 3 (String.length enc)) enc
      && Snapshot.decode enc = Ok snap)

let kv_digest_oracle =
  qtest ~count:100 "snapshot: kv_digest = per-field oracle" gen_kv (fun kv ->
      String.equal (Snapshot.kv_digest kv) (Oracle.kv_digest kv))

(* --- checkpoint store ----------------------------------------------------- *)

module Ckpt = Rcc_storage.Checkpoint_store

let ckpt seq =
  { Ckpt.seq; state_digest = Printf.sprintf "d%d" seq; attesters = [ 0; 1 ] }

let test_checkpoint_store_basic () =
  let store = Ckpt.create ~capacity:4 () in
  check Alcotest.int "empty stable_seq" (-1) (Ckpt.stable_seq store);
  Ckpt.record store (ckpt 10);
  Ckpt.record store (ckpt 20);
  check Alcotest.int "stable advances" 20 (Ckpt.stable_seq store);
  (* Stale checkpoints are ignored. *)
  Ckpt.record store (ckpt 15);
  check Alcotest.int "stale ignored" 20 (Ckpt.stable_seq store);
  check Alcotest.int "count" 2 (Ckpt.count store);
  check Alcotest.bool "find 10" true (Option.is_some (Ckpt.find store ~seq:10));
  check Alcotest.bool "find missing" true (Option.is_none (Ckpt.find store ~seq:11))

let test_checkpoint_store_ring_eviction () =
  let store = Ckpt.create ~capacity:3 () in
  List.iter (fun s -> Ckpt.record store (ckpt s)) [ 1; 2; 3; 4; 5 ];
  check Alcotest.bool "oldest evicted" true (Option.is_none (Ckpt.find store ~seq:1));
  check Alcotest.bool "recent kept" true (Option.is_some (Ckpt.find store ~seq:4));
  check
    Alcotest.(list int)
    "recent newest-first" [ 5; 4 ]
    (List.map (fun p -> p.Ckpt.seq) (Ckpt.recent store 2))

let suite =
  ( "storage",
    [
      Alcotest.test_case "ledger io roundtrip" `Quick test_ledger_io_roundtrip;
      Alcotest.test_case "ledger io corruption" `Quick test_ledger_io_rejects_corruption;
      Alcotest.test_case "ledger io files" `Quick test_ledger_io_files;
      Alcotest.test_case "ledger io golden bytes" `Quick test_ledger_io_golden;
      snapshot_encode_oracle;
      kv_digest_oracle;
      Alcotest.test_case "checkpoint store" `Quick test_checkpoint_store_basic;
      Alcotest.test_case "checkpoint ring" `Quick test_checkpoint_store_ring_eviction;
      Alcotest.test_case "kv basic" `Quick test_kv_basic;
      Alcotest.test_case "kv insert" `Quick test_kv_insert_new_key;
      kv_state_digest;
      Alcotest.test_case "kv digest differs" `Quick test_kv_digest_differs;
      Alcotest.test_case "block hash" `Quick test_block_hash_deterministic;
      Alcotest.test_case "genesis primaries" `Quick test_genesis_depends_on_primaries;
      Alcotest.test_case "ledger append/validate" `Quick test_ledger_append_validate;
      Alcotest.test_case "ledger rejects bad" `Quick test_ledger_rejects_bad_blocks;
      Alcotest.test_case "ledger iter" `Quick test_ledger_iter;
      Alcotest.test_case "txn table" `Quick test_txn_table;
    ] )
