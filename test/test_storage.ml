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

(* Model test: random operation sequences against a plain Hashtbl model
   of the store and its undo journal. Keys cover the dense direct range,
   holes across column growth, negative keys and keys at or above 2^22
   (the spill). Every read-style result and, at each [Check], the full
   canonical enumeration, size, counters and state digest must agree. *)
type kv_op =
  | Write of int * int
  | Read of int
  | Value of int
  | Version of int
  | Journal_round of int
  | Undo_above of int
  | Forget_below of int
  | Install of (int * int * int) list
  | Journal_clear
  | Check

let kv_direct_limit = 1 lsl 22

let gen_kv_key =
  QCheck2.Gen.(
    frequency
      [
        (6, int_range 0 40);
        (2, int_range 4090 4200);
        (1, int_range 0 70_000);
        (1, int_range (-20) (-1));
        (1, map (fun k -> kv_direct_limit + k) (int_range 0 20));
      ])

let gen_kv_op =
  QCheck2.Gen.(
    frequency
      [
        (10, map2 (fun k v -> Write (k, v)) gen_kv_key (int_range (-5) 1000));
        (3, map (fun k -> Read k) gen_kv_key);
        (3, map (fun k -> Value k) gen_kv_key);
        (3, map (fun k -> Version k) gen_kv_key);
        (3, map (fun r -> Journal_round r) (int_range 0 12));
        (1, map (fun r -> Undo_above r) (int_range 0 12));
        (1, map (fun r -> Forget_below r) (int_range 0 12));
        ( 1,
          map
            (fun l -> Install l)
            (list_size (int_range 0 20)
               (triple gen_kv_key (int_range 0 99) (int_range 0 5))) );
        (1, pure Journal_clear);
        (2, pure Check);
      ])

module Kv_model = struct
  type t = {
    tbl : (int, int * int) Hashtbl.t;
    mutable journal : (int * int * (int * int) option) list;  (* newest first *)
    mutable round : int;
    mutable reads : int;
    mutable writes : int;
    journal_on : bool;
  }

  let create ~journal_on =
    { tbl = Hashtbl.create 16; journal = []; round = -1; reads = 0; writes = 0; journal_on }

  let write m key value =
    m.writes <- m.writes + 1;
    let prior = Hashtbl.find_opt m.tbl key in
    if m.journal_on then m.journal <- (m.round, key, prior) :: m.journal;
    let version = match prior with Some (_, v) -> v + 1 | None -> 1 in
    Hashtbl.replace m.tbl key (value, version)

  let read m key =
    m.reads <- m.reads + 1;
    Option.map fst (Hashtbl.find_opt m.tbl key)

  let version m key = match Hashtbl.find_opt m.tbl key with Some (_, v) -> v | None -> 0

  let undo_above m r =
    List.iter
      (fun (round, key, prior) ->
        if round >= r then
          match prior with
          | None -> Hashtbl.remove m.tbl key
          | Some p -> Hashtbl.replace m.tbl key p)
      m.journal;
    m.journal <- List.filter (fun (round, _, _) -> round < r) m.journal

  let forget_below m r =
    m.journal <- List.filter (fun (round, _, _) -> round >= r) m.journal

  let install m l =
    Hashtbl.reset m.tbl;
    m.journal <- [];
    List.iter (fun (k, v, ver) -> Hashtbl.replace m.tbl k (v, ver)) l

  (* Canonical order: direct keys ascending, then spill keys ascending. *)
  let entries m =
    Hashtbl.fold (fun k (v, ver) acc -> (k, v, ver) :: acc) m.tbl []
    |> List.sort (fun (a, _, _) (b, _, _) ->
           let spill k = k < 0 || k >= kv_direct_limit in
           compare (spill a, a) (spill b, b))

  let state_digest m =
    let u64 x = Rcc_common.Bytes_util.u64_string (Int64.of_int x) in
    List.fold_left
      (fun acc (k, v, ver) ->
        Rcc_common.Bytes_util.xor acc
          (Rcc_crypto.Sha256.digest (u64 k ^ u64 v ^ u64 ver)))
      (String.make 32 '\x00') (entries m)
end

let kv_model =
  qtest ~count:300 "kv: model equivalence (columns + spill + journal vs Hashtbl)"
    QCheck2.Gen.(pair bool (list_size (int_range 0 150) gen_kv_op))
    (fun (journal_on, ops) ->
      let s = Kv.create () and m = Kv_model.create ~journal_on in
      if journal_on then Kv.enable_journal s;
      let step = function
        | Write (key, value) ->
            Kv.write s ~key ~value;
            Kv_model.write m key value;
            true
        | Read key -> Kv.read s key = Kv_model.read m key
        | Value key ->
            Kv.value s key = Option.value ~default:0 (Kv_model.read m key)
        | Version key -> Kv.version s key = Kv_model.version m key
        | Journal_round r ->
            Kv.journal_round s r;
            m.Kv_model.round <- r;
            true
        | Undo_above r ->
            Kv.undo_above s ~round:r;
            Kv_model.undo_above m r;
            true
        | Forget_below r ->
            Kv.forget_below s ~round:r;
            Kv_model.forget_below m r;
            true
        | Install l ->
            Kv.install s (Array.of_list l);
            Kv_model.install m l;
            true
        | Journal_clear ->
            Kv.journal_clear s;
            m.Kv_model.journal <- [];
            true
        | Check ->
            let want = Kv_model.entries m in
            let iterated = ref [] in
            Kv.iter s (fun k v ver -> iterated := (k, v, ver) :: !iterated);
            Array.to_list (Kv.entries s) = want
            && List.rev !iterated = want
            && Kv.size s = List.length want
            && String.equal (Kv.state_digest s) (Kv_model.state_digest m)
            && Kv.reads_performed s = m.Kv_model.reads
            && Kv.writes_performed s = m.Kv_model.writes
            && Kv.journal_length s = List.length m.Kv_model.journal
      in
      List.for_all step (ops @ [ Check ]))

(* A fixed operation sequence over direct keys, holes, negative keys and
   spill keys, with journal rounds, undo, forget and an install; the
   canonical KV digest was recorded from the record-per-key store the
   columnar layout replaced. *)
let test_kv_golden () =
  let s = Kv.create () in
  Kv.init_records s ~count:1000;
  Kv.enable_journal s;
  for round = 0 to 19 do
    Kv.journal_round s round;
    for i = 0 to 49 do
      let key =
        match i mod 5 with
        | 0 -> ((round * 131) + (i * 17)) mod 1000
        | 1 -> 5000 + (((round * 7) + i) mod 300 * 3)
        | 2 -> -1 - ((round + i) mod 40)
        | 3 -> kv_direct_limit + (((round * 3) + i) mod 60)
        | _ -> round * i mod 2000
      in
      Kv.write s ~key ~value:((round * 1000) + i)
    done;
    if round mod 5 = 4 then Kv.undo_above s ~round:(round - 1);
    if round mod 7 = 6 then Kv.forget_below s ~round:(round - 3)
  done;
  let e = Kv.entries s in
  Kv.install s (Array.sub e 0 ((Array.length e / 2) + 7));
  for i = 0 to 99 do
    Kv.journal_round s (20 + (i / 50));
    Kv.write s ~key:((i * 37 mod 6000) - 50) ~value:i
  done;
  Kv.undo_above s ~round:21;
  check Alcotest.int "size" 617 (Kv.size s);
  check Alcotest.int "journal" 50 (Kv.journal_length s);
  check Alcotest.string "kv_digest"
    "69cde7c8b8704dcdeb22d1be49239a96ba6a9caaa28cfec5fe4ffec2cece2fa3"
    (Rcc_common.Bytes_util.hex
       (Rcc_storage.Snapshot.kv_digest (Some (Kv.entries s))));
  check Alcotest.string "state_digest"
    "71131693ecd24bf8af872a19b3c13ca2d7da801f090c7998f76cd37449486423"
    (Rcc_common.Bytes_util.hex (Kv.state_digest s))

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
  let table = Txn_table.create ~z:2 in
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

(* The table as it was: boxed rows in per-round lists of a Hashtbl,
   sorted by instance on every [find], a whole-table fold per rollback. *)
module Txn_model = struct
  type t = { by_round : (int, Txn_table.entry list ref) Hashtbl.t; mutable txns : int }

  let create () = { by_round = Hashtbl.create 16; txns = 0 }

  let record t (e : Txn_table.entry) =
    t.txns <- t.txns + e.txn_count;
    match Hashtbl.find_opt t.by_round e.round with
    | Some l -> l := e :: !l
    | None -> Hashtbl.replace t.by_round e.round (ref [ e ])

  let find t ~round =
    match Hashtbl.find_opt t.by_round round with
    | None -> []
    | Some l ->
        List.sort
          (fun (a : Txn_table.entry) (b : Txn_table.entry) -> compare a.instance b.instance)
          !l

  let remove_from t ~round =
    let doomed =
      Hashtbl.fold (fun r _ acc -> if r >= round then r :: acc else acc) t.by_round []
    in
    let removed = ref 0 in
    List.iter
      (fun r ->
        List.iter
          (fun (e : Txn_table.entry) -> removed := !removed + e.txn_count)
          !(Hashtbl.find t.by_round r);
        Hashtbl.remove t.by_round r)
      doomed;
    t.txns <- t.txns - !removed;
    (List.length doomed, !removed)

  let rounds t = Hashtbl.length t.by_round
end

type txn_op = Record of int * int * int * int | Remove_from of int | Find_round of int

let txn_table_model =
  let gen =
    let open QCheck2.Gen in
    let* z = int_range 1 6 in
    let op =
      frequency
        [
          ( 8,
            map
              (fun (round, instance, client, count) -> Record (round, instance, client, count))
              (quad (int_range 0 79) (int_range 0 (z - 1)) (int_range (-1) 9)
                 (int_range 0 100)) );
          (1, map (fun r -> Remove_from r) (int_range (-2) 85));
          (2, map (fun r -> Find_round r) (int_range (-1) 85));
        ]
    in
    pair (return z) (list_size (int_range 0 200) op)
  in
  let print (z, ops) =
    Printf.sprintf "z=%d\n%s" z
      (String.concat "\n"
         (List.map
            (function
              | Record (r, x, c, n) -> Printf.sprintf "record r=%d x=%d client=%d txns=%d" r x c n
              | Remove_from r -> Printf.sprintf "remove_from %d" r
              | Find_round r -> Printf.sprintf "find %d" r)
            ops))
  in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:300 ~print ~name:"txn table == hashtable model" gen
       (fun (z, ops) ->
         let t = Txn_table.create ~z and m = Txn_model.create () in
         let same_rows round =
           Txn_table.find t ~round = Txn_model.find m ~round
           || QCheck2.Test.fail_reportf "find %d differs" round
         in
         List.iter
           (fun op ->
             (match op with
             | Record (round, instance, client, txn_count) ->
                 (* The execute stage records each (round, instance) once
                    between rollbacks. *)
                 if
                   not
                     (List.exists
                        (fun (e : Txn_table.entry) -> e.instance = instance)
                        (Txn_model.find m ~round))
                 then begin
                   let e =
                     {
                       Txn_table.round;
                       instance;
                       client;
                       batch_digest = Printf.sprintf "b%d.%d" round instance;
                       response_digest = Printf.sprintf "r%d" client;
                       txn_count;
                     }
                   in
                   Txn_table.record t e;
                   Txn_model.record m e
                 end
             | Remove_from round ->
                 let got = Txn_table.remove_from t ~round in
                 let want = Txn_model.remove_from m ~round in
                 if got <> want then
                   QCheck2.Test.fail_reportf "remove_from %d: (%d, %d), model (%d, %d)"
                     round (fst got) (snd got) (fst want) (snd want)
             | Find_round round -> ignore (same_rows round));
             if
               Txn_table.total_txns t <> m.Txn_model.txns
               || Txn_table.rounds t <> Txn_model.rounds m
             then
               QCheck2.Test.fail_reportf "totals: (%d txns, %d rounds), model (%d, %d)"
                 (Txn_table.total_txns t) (Txn_table.rounds t) m.Txn_model.txns
                 (Txn_model.rounds m))
           ops;
         for round = -1 to 86 do
           ignore (same_rows round)
         done;
         true))

(* --- block records ------------------------------------------------------ *)

(* A fixed 50-block chain whose stored records ({!Block.write}, as a
   snapshot carries them) are pinned by SHA-256; the digest is the block
   section of the former ledger file format, recorded from the
   Buffer-based writer the exact-size one replaced. *)
let test_block_records_golden () =
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
  let blocks = Ledger.prefix ledger ~upto:50 in
  let buf =
    Bytes.create (Array.fold_left (fun n b -> n + Block.record_size b) 0 blocks)
  in
  let stop = Array.fold_left (fun off b -> Block.write buf b off) 0 blocks in
  check Alcotest.int "exact size" (Bytes.length buf) stop;
  check Alcotest.string "record bytes"
    "6ddaccda60e268eee6fac4e88168a22b64e998134afe0e40a32431726a02db96"
    (Rcc_crypto.Sha256.hex_digest (Bytes.unsafe_to_string buf))

(* Inputs whose length or count fields read 0x3FFF_FFFF_FFFF_FFFF
   (max_int once read): every decoder returns an error, never raises. *)
let test_max_length_probes () =
  let huge = "\x3f\xff\xff\xff\xff\xff\xff\xff" in
  let u64 v = Rcc_common.Bytes_util.u64_string (Int64.of_int v) in
  let rejects what decode input =
    match decode input with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "%s: probe accepted" what
    | exception e -> Alcotest.failf "%s: raised %s" what (Printexc.to_string e)
  in
  let snap what input = rejects ("snapshot " ^ what) Rcc_storage.Snapshot.decode input in
  snap "block count" ("RCCS1\n" ^ u64 0 ^ huge);
  snap "prev hash" ("RCCS1\n" ^ u64 1 ^ u64 1 ^ u64 0 ^ huge);
  (* One block at round 0 with an empty previous hash, then its fields. *)
  let block = "RCCS1\n" ^ u64 1 ^ u64 1 ^ u64 0 ^ u64 0 in
  snap "proof count" (block ^ huge);
  snap "proof digest" (block ^ u64 1 ^ u64 0 ^ huge);
  snap "block primaries" (block ^ u64 0 ^ huge);
  snap "block clients" (block ^ u64 0 ^ u64 0 ^ huge);
  snap "kv count" ("RCCS1\n" ^ u64 0 ^ u64 0 ^ "\x01" ^ huge);
  snap "replied count" ("RCCS1\n" ^ u64 0 ^ u64 0 ^ "\x00" ^ huge);
  snap "reply digest" ("RCCS1\n" ^ u64 0 ^ u64 0 ^ "\x00" ^ u64 1 ^ u64 3 ^ huge);
  snap "reply result"
    ("RCCS1\n" ^ u64 0 ^ u64 0 ^ "\x00" ^ u64 1 ^ u64 3 ^ u64 0 ^ u64 2 ^ huge)

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
  qtest ~count:60 "snapshot: encode = Buffer oracle" gen_snapshot (fun snap ->
      let enc = Snapshot.encode snap in
      String.equal enc (Oracle.encode snap) && Snapshot.decode enc = Ok snap)

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
      Alcotest.test_case "block records golden bytes" `Quick
        test_block_records_golden;
      Alcotest.test_case "max-length probes" `Quick test_max_length_probes;
      snapshot_encode_oracle;
      kv_digest_oracle;
      Alcotest.test_case "checkpoint store" `Quick test_checkpoint_store_basic;
      Alcotest.test_case "checkpoint ring" `Quick test_checkpoint_store_ring_eviction;
      Alcotest.test_case "kv basic" `Quick test_kv_basic;
      Alcotest.test_case "kv insert" `Quick test_kv_insert_new_key;
      kv_state_digest;
      Alcotest.test_case "kv digest differs" `Quick test_kv_digest_differs;
      kv_model;
      Alcotest.test_case "kv golden digest" `Quick test_kv_golden;
      Alcotest.test_case "block hash" `Quick test_block_hash_deterministic;
      Alcotest.test_case "genesis primaries" `Quick test_genesis_depends_on_primaries;
      Alcotest.test_case "ledger append/validate" `Quick test_ledger_append_validate;
      Alcotest.test_case "ledger rejects bad" `Quick test_ledger_rejects_bad_blocks;
      Alcotest.test_case "txn table" `Quick test_txn_table;
      txn_table_model;
    ] )
