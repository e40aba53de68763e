(* Journal tests: the deterministic fault-injecting disk, group-commit
   crash semantics, snapshot slot discipline, and restart-from-disk
   recovery — a QCheck property that journal replay reproduces in-memory
   execution at random crash points, and a torn/corrupt/lost sweep
   proving every injected fault truncates the replay to a valid prefix,
   never silently diverging from the clean history. *)

module Engine = Rcc_sim.Engine
module Costs = Rcc_sim.Costs
module Journal = Rcc_journal.Journal
module Sim_disk = Rcc_journal.Sim_disk
module Batch = Rcc_messages.Batch
module Ledger = Rcc_storage.Ledger
module Kv = Rcc_storage.Kv_store
module Txn_table = Rcc_storage.Txn_table
module Snapshot = Rcc_storage.Snapshot
module Acceptance = Rcc_replica.Acceptance
module Exec = Rcc_replica.Exec
module Txn = Rcc_workload.Txn
module Rng = Rcc_common.Rng
module Keychain = Rcc_crypto.Keychain

let check = Alcotest.check

let qtest ?(count = 30) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let primaries = [ 0; 1 ]
let keychain = lazy (Keychain.create ~seed:42 ~n:4 ~clients:8)

(* Batches carry a write of the globally unique id, so no two generated
   batches share a digest and replay's duplicate-reply suppression never
   fires on distinct work. *)
let mk_batch ~id ~client ~rng =
  let extra = Rng.int rng 3 in
  let txns =
    Array.init (1 + extra) (fun i ->
        if i = 0 then { Txn.key = Rng.int rng 100; op = Txn.Write id }
        else
          {
            Txn.key = Rng.int rng 100;
            op =
              (if Rng.bool rng then Txn.Read else Txn.Write (Rng.int rng 1_000));
          })
  in
  Batch.create ~id ~client ~txns
    ~secret:(Keychain.client_secret (Lazy.force keychain) client)

(* One round = one acceptance per instance, in replay order. *)
let mk_round ~next_id ~rng ?(speculative = false) round =
  Array.of_list
    (List.map
       (fun instance ->
         let id = !next_id in
         incr next_id;
         {
           Acceptance.instance;
           round;
           batch = mk_batch ~id ~client:(Rng.int rng 8) ~rng;
           cert = [ 0; 1; 2 ];
           speculative;
           history = "";
         })
       primaries)

let mk_rounds ~seed ?(speculative = false) n =
  let rng = Rng.create seed in
  let next_id = ref (1 + (1_000_000 * seed)) in
  List.init n (fun round -> (round, mk_round ~next_id ~rng ~speculative round))

(* A bare execute stage over fresh state, wired like the builder's (its
   store keeps the undo journal rollback replay depends on). *)
let fresh_exec ?checkpoint_interval ?(respond = fun _ _ -> ()) engine =
  let ledger = Ledger.create ~primaries in
  let store = Kv.create () in
  let txn_table = Txn_table.create ~z:(List.length primaries) in
  let exec =
    Exec.create ~engine ~costs:Costs.default
      ~server:(Rcc_sim.Cpu.server engine ~name:"exec" ())
      ~z:(List.length primaries) ~self:0 ~store ~ledger ~txn_table
      ~current_primaries:(fun () -> primaries)
      ~respond
      ~metrics:
        (Rcc_replica.Metrics.create ~n:1 ~instances:(List.length primaries)
           ~warmup:0 ())
      ?checkpoint_interval ()
  in
  (exec, ledger, store, txn_table)

(* The builder's wiring of an execute stage to its journal. *)
let persist_to j =
  {
    Exec.p_round =
      (fun ~round ordered -> Journal.log_round j ~round ~primaries ordered);
    p_rollback = (fun ~frontier -> Journal.log_rollback j ~frontier);
    p_stable = (fun ~floor -> Journal.log_stable j ~floor);
    p_snapshot = Journal.write_snapshot j;
  }

(* Journal a checkpoint given as a decoded snapshot, through the boundary
   the execute stage would have captured for it. *)
let write_snap j (snap : Snapshot.t) =
  Journal.write_snapshot j
    (Snapshot.boundary ~seq:snap.seq ~head:""
       ~kv:(Option.map Snapshot.kv_section snap.kv)
       ~replied:snap.replied)
    ~blocks:snap.blocks

(* Recover a fresh incarnation's execute stage from [disk]. *)
let recover_exec ?(engine = Engine.create ()) ?respond disk =
  let ((exec, _, _, _) as fresh) = fresh_exec ?respond engine in
  (Journal.recover ~engine ~self:0 ~disk ~exec ~primaries (), fresh)

let recover_fresh disk =
  let rv, (_, ledger, store, txn_table) = recover_exec disk in
  (rv, ledger, store, txn_table)

(* Simulated time that drains any workload these tests generate, which
   leaves the clock short of [max_int] for later scheduling. *)
let quiesce = Engine.of_seconds 60.

(* The live reference: a fresh execute stage that executes [rounds] and
   runs to quiescence. *)
let execute_live ?(engine = Engine.create ()) ?respond rounds =
  let ((exec, _, _, _) as live) = fresh_exec ?respond engine in
  List.iter (fun (_, slots) -> Array.iter (Exec.notify exec) slots) rounds;
  Engine.run engine ~until:(Engine.now engine + quiesce);
  live

(* The in-memory oracle: apply the batches directly, in (round, slot)
   order — what live execution would have produced. *)
let oracle_store rounds =
  let store = Kv.create () in
  List.iter
    (fun (_, slots) ->
      Array.iter
        (fun (a : Acceptance.t) ->
          Array.iter
            (fun txn -> ignore (Txn.apply store txn))
            (Batch.txns a.Acceptance.batch))
        slots)
    rounds;
  store

(* Log rounds through a journal writer and let the engine drain every
   scheduled flush; returns the journal so callers can keep appending. *)
let log_and_flush ~engine ~disk rounds =
  let j =
    Journal.attach ~engine ~costs:Costs.default ~disk ~self:0 ()
  in
  List.iter
    (fun (round, slots) -> Journal.log_round j ~round ~primaries slots)
    rounds;
  Engine.run engine ~until:(Engine.now engine + Engine.ms 100);
  j

(* --- Sim_disk ----------------------------------------------------------- *)

(* [s] as framing with its middle third spliced in by reference: the same
   bytes in the stored form a journal record takes. *)
let splice_middle s =
  let n = String.length s in
  let a = n / 3 and b = 2 * n / 3 in
  Sim_disk.spliced
    ~frame:(String.sub s 0 a ^ String.sub s b (n - b))
    ~at:[| a |]
    [| String.sub s a (b - a) |]

let test_disk_determinism () =
  let fill disk =
    for i = 0 to 19 do
      Sim_disk.append disk
        (List.map Sim_disk.flat [ Printf.sprintf "record-%d" i; "tail" ])
    done
  in
  let a = Sim_disk.create ~seed:7 and b = Sim_disk.create ~seed:7 in
  Sim_disk.set_faults a (Sim_disk.uniform_faults 0.3);
  Sim_disk.set_faults b (Sim_disk.uniform_faults 0.3);
  fill a;
  fill b;
  check Alcotest.bool "faults actually injected" true
    (Sim_disk.faults_injected a > 0);
  check Alcotest.int "same seed, same fault count" (Sim_disk.faults_injected a)
    (Sim_disk.faults_injected b);
  check
    Alcotest.(list string)
    "same seed, same fault kinds" (Sim_disk.fault_log a) (Sim_disk.fault_log b);
  check Alcotest.string "same seed, same stored bytes" (Sim_disk.journal a)
    (Sim_disk.journal b);
  let clean = Sim_disk.create ~seed:7 in
  fill clean;
  check Alcotest.int "fault-free disk stores everything"
    (String.length (String.concat ""
       (List.concat
          (List.init 20 (fun i -> [ Printf.sprintf "record-%d" i; "tail" ])))))
    (Sim_disk.journal_bytes clean);
  check Alcotest.int "no spurious faults" 0 (Sim_disk.faults_injected clean)

let test_disk_snapshot_slots () =
  let disk = Sim_disk.create ~seed:3 in
  Sim_disk.write_snapshot disk ~seq:128 (Sim_disk.flat "AAAA");
  Sim_disk.write_snapshot disk ~seq:256 (Sim_disk.flat "BBBB");
  check
    Alcotest.(list (pair int string))
    "two slots, newest first"
    [ (256, "BBBB"); (128, "AAAA") ]
    (Sim_disk.snapshots disk);
  (* The third write recycles the OLDER slot; the newest survives. *)
  Sim_disk.write_snapshot disk ~seq:384 (Sim_disk.flat "CCCC");
  check
    Alcotest.(list (pair int string))
    "older slot recycled"
    [ (384, "CCCC"); (256, "BBBB") ]
    (Sim_disk.snapshots disk);
  (* A lost write must never destroy the existing slots. *)
  Sim_disk.set_faults disk { Sim_disk.torn = 0.0; corrupt = 0.0; lost = 1.0 };
  Sim_disk.write_snapshot disk ~seq:512 (Sim_disk.flat "DDDD");
  check
    Alcotest.(list (pair int string))
    "lost snapshot write leaves slots intact"
    [ (384, "CCCC"); (256, "BBBB") ]
    (Sim_disk.snapshots disk)

(* A verified slot promoted to anchor is never the victim; compaction
   drops intact records below a point and stops at the first faulted
   one; a rollback erases the slots above its frontier. *)
let test_disk_anchor_and_compaction () =
  let disk = Sim_disk.create ~seed:3 in
  let ok _ = true in
  Sim_disk.write_snapshot disk ~check:ok ~seq:4 (Sim_disk.flat "AAAA");
  check Alcotest.int "no anchor above the floor" (-1)
    (Sim_disk.promote_anchor disk ~floor:3);
  check Alcotest.int "anchor at the floor" 4
    (Sim_disk.promote_anchor disk ~floor:4);
  Sim_disk.write_snapshot disk ~check:ok ~seq:8 (Sim_disk.flat "BBBB");
  Sim_disk.write_snapshot disk ~seq:12 (Sim_disk.flat "CCCC");
  check
    Alcotest.(list (pair int string))
    "the anchor survives two newer writes"
    [ (12, "CCCC"); (4, "AAAA") ]
    (Sim_disk.snapshots disk);
  check Alcotest.int "an unverified slot is never promoted" 4
    (Sim_disk.promote_anchor disk ~floor:20);
  Sim_disk.invalidate_above disk ~frontier:9;
  check
    Alcotest.(list (pair int string))
    "rollback to 9 erases the slot at 12" [ (4, "AAAA") ]
    (Sim_disk.snapshots disk);
  let round_of s = int_of_string (String.sub s 0 1) in
  Sim_disk.append disk ~round_of (List.map Sim_disk.flat [ "0a"; "1b" ]);
  Sim_disk.append disk ~round_of (List.map Sim_disk.flat [ "2c"; "5d" ]);
  Sim_disk.set_faults disk { Sim_disk.torn = 0.0; corrupt = 1.0; lost = 0.0 };
  Sim_disk.append disk ~round_of (List.map Sim_disk.flat [ "3e" ]);
  Sim_disk.set_faults disk Sim_disk.no_faults;
  Sim_disk.append disk ~round_of (List.map Sim_disk.flat [ "4f" ]);
  check Alcotest.int "stops at the first record not below" 6
    (Sim_disk.compact disk ~below:4);
  check Alcotest.string "suffix kept" "5d" (String.sub (Sim_disk.journal disk) 0 2);
  check Alcotest.int "then at the corrupt record" 2
    (Sim_disk.compact disk ~below:6);
  check Alcotest.int "never past it" 0 (Sim_disk.compact disk ~below:9);
  check Alcotest.int "bytes = area length"
    (String.length (Sim_disk.journal disk))
    (Sim_disk.journal_bytes disk);
  let shadow = Sim_disk.create_shadow ~seed:3 in
  Sim_disk.append shadow ~round_of (List.map Sim_disk.flat [ "0a" ]);
  check Alcotest.int "a shadow disk never compacts" 0
    (Sim_disk.compact shadow ~below:9)

(* One seed at 5% of each fault, 200 flushes of 1-4 records of 0-599
   bytes and a snapshot write every 50 flushes, each record and blob
   handed over with its middle third spliced in. The digests were
   recorded when the disk stored flat strings; the stored bytes, fault
   rolls and slots must not move. *)
let test_disk_golden () =
  let rng = Rng.create 2024 in
  let disk = Sim_disk.create ~seed:11 in
  Sim_disk.set_faults disk (Sim_disk.uniform_faults 0.05);
  for i = 0 to 199 do
    let records =
      List.init
        (1 + Rng.int rng 4)
        (fun j ->
          String.init (Rng.int rng 600) (fun k ->
              Char.chr (((i * 31) + (j * 7) + k) land 0xff)))
    in
    Sim_disk.append disk (List.map splice_middle records);
    if i mod 50 = 49 then
      Sim_disk.write_snapshot disk ~seq:(i + 1)
        (splice_middle @@ String.init (1000 + Rng.int rng 3000) (fun k ->
             Char.chr (((k * 13) + i) land 0xff)))
  done;
  let sha = Rcc_crypto.Sha256.hex_digest in
  check Alcotest.string "journal area"
    "16f177bec5cddc6513232739e7d2733193ed759b406130002ad951ad4e078368"
    (sha (Sim_disk.journal disk));
  check Alcotest.int "journal bytes" 124139 (Sim_disk.journal_bytes disk);
  check Alcotest.int "bytes = area length"
    (String.length (Sim_disk.journal disk))
    (Sim_disk.journal_bytes disk);
  check Alcotest.string "fault log"
    "3724fd12818ad3c6d1fb84f0fed04df7ada126125b20339a303a2ff629627f8d"
    (sha (String.concat "," (Sim_disk.fault_log disk)));
  check
    Alcotest.(list (pair int string))
    "slots"
    [
      (200, "97a6f72126ecfe795d2e536a4a46c1431420c685e160421809b44944de9ebbb2");
      (150, "fd62e3c3909402ed011b65c507016d4ba0c448947cf9bebedf2f7f00ef5678d3");
    ]
    (List.map (fun (seq, blob) -> (seq, sha blob)) (Sim_disk.snapshots disk))

(* --- group commit ------------------------------------------------------- *)

let test_group_commit_crash () =
  let engine = Engine.create () in
  let disk = Sim_disk.create ~seed:1 in
  let rounds = mk_rounds ~seed:5 2 in
  let j = Journal.attach ~engine ~costs:Costs.default ~disk ~self:0 () in
  List.iter
    (fun (round, slots) -> Journal.log_round j ~round ~primaries slots)
    rounds;
  (* Buffered, not yet durable: nothing on disk until the flush fires. *)
  check Alcotest.int "nothing durable before flush" 0
    (Sim_disk.journal_bytes disk);
  check Alcotest.int "no round durable yet" (-1) (Journal.durable_round j);
  Engine.run engine ~until:(Engine.ms 10);
  check Alcotest.bool "flush persisted the records" true
    (Sim_disk.journal_bytes disk > 0);
  check Alcotest.int "durable frontier advanced" 1 (Journal.durable_round j);
  check Alcotest.int "one group-commit flush" 1 (Journal.flushes j);
  (* Crash with a dirty buffer: the un-flushed round is gone. *)
  let bytes_before = Sim_disk.journal_bytes disk in
  let round, slots = (2, mk_round ~next_id:(ref 900) ~rng:(Rng.create 9) 2) in
  Journal.log_round j ~round ~primaries slots;
  Journal.halt j;
  Engine.run engine ~until:(Engine.ms 20);
  check Alcotest.int "crash drops the dirty buffer" bytes_before
    (Sim_disk.journal_bytes disk);
  let rv, ledger, _, _ = recover_fresh disk in
  check Alcotest.int "recovery sees only the flushed prefix" 2
    rv.Journal.r_frontier;
  check Alcotest.int "ledger replayed to the durable frontier" 2
    (Ledger.next_round ledger)

(* --- recovery ----------------------------------------------------------- *)

let test_replay_matches_execution () =
  let engine = Engine.create () in
  let disk = Sim_disk.create ~seed:2 in
  let rounds = mk_rounds ~seed:11 20 in
  let j = log_and_flush ~engine ~disk rounds in
  check Alcotest.bool "snapshotless run flushed" true (Journal.flushes j > 0);
  let rv, ledger, store, txn_table = recover_fresh disk in
  check Alcotest.int "frontier = rounds logged" 20 rv.Journal.r_frontier;
  check Alcotest.int "no snapshot involved" 0 rv.Journal.r_snapshot_seq;
  check Alcotest.int "every round replayed" 20 rv.Journal.r_replayed_rounds;
  check Alcotest.int "ledger rebuilt" 20 (Ledger.next_round ledger);
  check Alcotest.bool "chain validates" true
    (Result.is_ok (Ledger.validate ledger));
  check Alcotest.string "KV state = direct in-memory execution"
    (Kv.state_digest (oracle_store rounds))
    (Kv.state_digest store);
  check Alcotest.int "txn table covers every round" 20
    (Txn_table.rounds txn_table);
  (* Determinism: recovering the same disk twice is byte-identical. *)
  let _, ledger2, store2, _ = recover_fresh disk in
  check Alcotest.string "second recovery, same KV" (Kv.state_digest store)
    (Kv.state_digest store2);
  check Alcotest.string "second recovery, same head" (Ledger.head_hash ledger)
    (Ledger.head_hash ledger2)

let test_replay_rollback () =
  let engine = Engine.create () in
  let disk = Sim_disk.create ~seed:4 in
  let keep = mk_rounds ~seed:21 3 in
  let doomed =
    List.map (fun (r, s) -> (r + 3, s)) (mk_rounds ~seed:22 2)
  in
  let redone =
    List.map (fun (r, s) -> (r + 3, s)) (mk_rounds ~seed:23 2)
  in
  let j = Journal.attach ~engine ~costs:Costs.default ~disk ~self:0 () in
  List.iter
    (fun (round, slots) -> Journal.log_round j ~round ~primaries slots)
    (keep @ doomed);
  (* A view change unwinds the speculative tail, then different batches
     land at the same rounds — exactly what the rollback record exists
     to make durable. *)
  Journal.log_rollback j ~frontier:3;
  List.iter
    (fun (round, slots) -> Journal.log_round j ~round ~primaries slots)
    redone;
  Engine.run engine ~until:(Engine.ms 100);
  let rv, ledger, store, _ = recover_fresh disk in
  check Alcotest.int "frontier past the re-done rounds" 5 rv.Journal.r_frontier;
  check Alcotest.bool "chain validates" true
    (Result.is_ok (Ledger.validate ledger));
  check Alcotest.string "rollback undone: state = keep + redone only"
    (Kv.state_digest (oracle_store (keep @ redone)))
    (Kv.state_digest store)

(* Speculative rounds 0-5 with a slot written at boundary 4 and a stable
   floor of 2, then a rollback to round 2 made durable, then a crash:
   recovery must rebuild the post-rollback state, not the unwound state
   the slot holds. *)
let test_rollback_erases_newer_slot () =
  let engine = Engine.create () in
  let disk = Sim_disk.create ~seed:13 in
  let live, live_ledger, live_store, _ =
    fresh_exec ~checkpoint_interval:1 engine
  in
  let j = Journal.attach ~engine ~costs:Costs.default ~disk ~self:0 () in
  Exec.set_persist live (persist_to j);
  List.iter
    (fun (_, slots) -> Array.iter (Exec.notify live) slots)
    (mk_rounds ~seed:61 ~speculative:true 6);
  Exec.on_stable live ~instance:0 ~seq:2;
  Exec.on_stable live ~instance:1 ~seq:2;
  Engine.run engine ~until:(Engine.now engine + Engine.ms 100);
  check
    Alcotest.(list int)
    "slot written at the boundary" [ 4 ]
    (List.map fst (Sim_disk.snapshots disk));
  Exec.rollback_to live ~frontier:2 ~instance:0;
  Engine.run engine ~until:(Engine.now engine + Engine.ms 100);
  Journal.halt j;
  check Alcotest.int "live replica unwound to round 2" 2
    (Ledger.next_round live_ledger);
  let rv, ledger, store, _ = recover_fresh disk in
  check Alcotest.int "recovered to the rollback frontier" 2
    rv.Journal.r_frontier;
  check Alcotest.string "KV = the post-rollback live replica's"
    (Kv.state_digest live_store) (Kv.state_digest store);
  check Alcotest.string "head = the post-rollback live replica's"
    (Ledger.head_hash live_ledger) (Ledger.head_hash ledger)

let test_replay_stops_at_unproven_speculation () =
  let engine = Engine.create () in
  let disk = Sim_disk.create ~seed:6 in
  let rounds = mk_rounds ~seed:31 ~speculative:true 10 in
  let j = Journal.attach ~engine ~costs:Costs.default ~disk ~self:0 () in
  List.iter
    (fun (round, slots) -> Journal.log_round j ~round ~primaries slots)
    rounds;
  (* The stable floor proves rounds < 8; speculative rounds at or past it
     may have been rolled back in the lost suffix, so replay must not
     trust them. *)
  Journal.log_stable j ~floor:8;
  Engine.run engine ~until:(Engine.ms 100);
  let rv, _, store, _ = recover_fresh disk in
  check Alcotest.int "replay stops at the attest floor" 8 rv.Journal.r_frontier;
  check Alcotest.string "state covers exactly the proven prefix"
    (Kv.state_digest
       (oracle_store (List.filter (fun (r, _) -> r < 8) rounds)))
    (Kv.state_digest store)

let test_snapshot_plus_suffix () =
  let engine = Engine.create () in
  let disk = Sim_disk.create ~seed:8 in
  let rounds = mk_rounds ~seed:41 10 in
  let j = log_and_flush ~engine ~disk rounds in
  (* Build the checkpoint the way the execute stage does: from the
     recovered (= live) state at the boundary. *)
  let _, ledger, store, _ = recover_fresh disk in
  let snap =
    (* Checkpoint state at the boundary: KV as of round 8, not the
       frontier — the execute stage captures a boundary as the round
       before it commits, before any later round has applied. *)
    {
      Snapshot.seq = 8;
      blocks = Ledger.prefix ledger ~upto:8;
      kv =
        Some
          (Kv.entries
             (oracle_store (List.filter (fun (r, _) -> r < 8) rounds)));
      replied = [];
    }
  in
  write_snap j snap;
  Engine.run engine ~until:(Engine.now engine + Engine.ms 100);
  check Alcotest.int "snapshot written" 1 (Journal.snapshots_written j);
  let rv, ledger2, store2, _ = recover_fresh disk in
  check Alcotest.int "recovery starts from the snapshot" 8
    rv.Journal.r_snapshot_seq;
  check Alcotest.int "only the suffix replayed" 2 rv.Journal.r_replayed_rounds;
  check Alcotest.int "frontier unchanged" 10 rv.Journal.r_frontier;
  check Alcotest.string "snapshot + suffix = full replay"
    (Kv.state_digest store)
    (Kv.state_digest store2);
  check Alcotest.string "same chain head" (Ledger.head_hash ledger)
    (Ledger.head_hash ledger2);
  (* A corrupted newer snapshot must fall back to the older good slot,
     never poison recovery. *)
  Sim_disk.set_faults disk { Sim_disk.torn = 0.0; corrupt = 1.0; lost = 0.0 };
  let snap9 = { snap with Snapshot.seq = 9; blocks = Ledger.prefix ledger ~upto:9 } in
  write_snap j snap9;
  Engine.run engine ~until:(Engine.now engine + Engine.ms 100);
  Sim_disk.set_faults disk Sim_disk.no_faults;
  let rv3, _, store3, _ = recover_fresh disk in
  check Alcotest.int "corrupt slot skipped, older one used" 8
    rv3.Journal.r_snapshot_seq;
  check Alcotest.string "state still correct" (Kv.state_digest store)
    (Kv.state_digest store3)

(* A small checkpoint: 3 chained blocks, 5 KV triples, 2 replies. *)
let small_snapshot () =
  let engine = Engine.create () in
  let disk = Sim_disk.create ~seed:8 in
  ignore (log_and_flush ~engine ~disk (mk_rounds ~seed:43 3));
  let _, ledger, _, _ = recover_fresh disk in
  {
    Snapshot.seq = 3;
    blocks = Ledger.prefix ledger ~upto:3;
    kv = Some (Array.init 5 (fun k -> (k, k * 3, 1)));
    replied = [ (1, String.make 32 'd', 2, "r"); (4, "", 0, "") ];
  }

let small_base = lazy (small_snapshot ())

let written_slot snap =
  let engine = Engine.create () in
  let disk = Sim_disk.create ~seed:9 in
  let j = Journal.attach ~engine ~costs:Costs.default ~disk ~self:0 () in
  write_snap j snap;
  Engine.run engine ~until:(Engine.now engine + Engine.ms 100);
  disk

let test_snapshot_slot_roundtrip () =
  let snap = small_snapshot () in
  let disk = written_slot snap in
  check Alcotest.bool "slot loads back as written" true
    (Journal.load_snapshot disk ~primaries = Some snap);
  match Sim_disk.snapshots disk with
  | [ (3, blob) ] ->
      check Alcotest.int "blob = 20-byte header + encoding"
        (20 + String.length (Snapshot.encode snap))
        (String.length blob)
  | _ -> Alcotest.fail "expected one slot at seq 3"

(* The same flip [Sim_disk.corrupt_record] makes, at every byte of a
   slot blob: magic, length, checksum and body. *)
let test_snapshot_slot_flip_sweep () =
  let snap = small_snapshot () in
  let blob =
    match Sim_disk.snapshots (written_slot snap) with
    | [ (_, blob) ] -> blob
    | _ -> Alcotest.fail "expected one slot"
  in
  for pos = 0 to String.length blob - 1 do
    let b = Bytes.of_string blob in
    Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0x40));
    let disk = Sim_disk.create ~seed:10 in
    Sim_disk.write_snapshot disk ~seq:3 (Sim_disk.flat (Bytes.to_string b));
    if Journal.load_snapshot disk ~primaries <> None then
      Alcotest.failf "flip at byte %d of the slot blob accepted" pos
  done

(* --- fault sweep: detected or truncated, never divergent ---------------- *)

let test_fault_sweep () =
  let rounds = mk_rounds ~seed:51 30 in
  (* Clean reference: what an honest disk recovers to. *)
  let clean_disk = Sim_disk.create ~seed:100 in
  ignore (log_and_flush ~engine:(Engine.create ()) ~disk:clean_disk rounds);
  let _, clean_ledger, _, _ = recover_fresh clean_disk in
  let faults_seen = ref 0 and truncations = ref 0 in
  List.iter
    (fun (seed, p) ->
      let disk = Sim_disk.create ~seed in
      Sim_disk.set_faults disk (Sim_disk.uniform_faults p);
      ignore (log_and_flush ~engine:(Engine.create ()) ~disk rounds);
      faults_seen := !faults_seen + Sim_disk.faults_injected disk;
      let rv, ledger, store, _ = recover_fresh disk in
      let f = rv.Journal.r_frontier in
      if f < 30 then incr truncations;
      check Alcotest.bool
        (Printf.sprintf "seed %d p=%.2f: frontier bounded" seed p)
        true (f <= 30);
      (* The recovered prefix must be byte-identical to the clean
         history — a lying disk loses data, it never rewrites it. *)
      check Alcotest.bool
        (Printf.sprintf "seed %d p=%.2f: prefix matches clean history" seed p)
        true
        (Ledger.prefix ledger ~upto:f = Ledger.prefix clean_ledger ~upto:f);
      check Alcotest.string
        (Printf.sprintf "seed %d p=%.2f: state matches clean prefix" seed p)
        (Kv.state_digest
           (oracle_store (List.filter (fun (r, _) -> r < f) rounds)))
        (Kv.state_digest store))
    [ (201, 0.05); (202, 0.1); (203, 0.2); (204, 0.3); (205, 0.5) ];
  check Alcotest.bool "the sweep exercised injected faults" true
    (!faults_seen > 0);
  check Alcotest.bool "at least one recovery was truncated" true
    (!truncations > 0)

(* --- round-record framing ------------------------------------------------ *)

(* One round holding a Write txn, a Read txn and a null batch, journaled on
   an honest disk; returns the journal area and the offset of the round
   record (a view record precedes it). *)
let framed_round ?(tamper = Fun.id) () =
  let batch =
    Batch.create ~id:5 ~client:2
      ~txns:
        [|
          { Txn.key = 11; op = Txn.Write 77 }; { Txn.key = 12; op = Txn.Read };
        |]
      ~secret:(Keychain.client_secret (Lazy.force keychain) 2)
  in
  let slot instance batch =
    {
      Acceptance.instance;
      round = 0;
      batch;
      cert = [ 0; 2; 3 ];
      speculative = instance = 1;
      history = "";
    }
  in
  let ordered = [| slot 0 (tamper batch); slot 1 (Batch.null ~round:0) |] in
  let disk = Sim_disk.create ~seed:1 in
  ignore
    (log_and_flush ~engine:(Engine.create ()) ~disk [ (0, ordered) ]);
  let journal = Sim_disk.journal disk in
  let view_len =
    21 + Int64.to_int (Rcc_common.Bytes_util.get_u64be journal 5)
  in
  (ordered, journal, view_len)

let test_round_record_roundtrip () =
  let ordered, journal, _ = framed_round () in
  match Journal.scan_rounds journal with
  | [ (0, decoded) ] ->
      check Alcotest.int "slots" (Array.length ordered) (Array.length decoded);
      Array.iter2
        (fun (a : Acceptance.t) (d : Acceptance.t) ->
          check Alcotest.int "instance" a.instance d.instance;
          check Alcotest.int "round" a.round d.round;
          check Alcotest.bool "speculative" a.speculative d.speculative;
          check Alcotest.(list int) "cert" a.cert d.cert;
          let b = a.batch and e = d.batch in
          check Alcotest.int "batch id" b.Batch.id e.Batch.id;
          check Alcotest.int "client" b.Batch.client e.Batch.client;
          check Alcotest.string "payload" b.Batch.payload e.Batch.payload;
          check Alcotest.string "digest" b.Batch.digest e.Batch.digest;
          check Alcotest.string "signature" b.Batch.signature e.Batch.signature)
        ordered decoded
  | rounds -> Alcotest.failf "expected one round, scanned %d" (List.length rounds)

(* The same flip [Sim_disk.corrupt_record] makes, at every byte of the
   round record: header, ids, certificates, flags, digests, signatures
   and the txn payload — Read value bytes included, which decoding alone
   would ignore. *)
let test_round_record_flip_sweep () =
  let _, journal, view_len = framed_round () in
  check Alcotest.int "clean record scans" 1
    (List.length (Journal.scan_rounds journal));
  for pos = view_len to String.length journal - 1 do
    let b = Bytes.of_string journal in
    Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0x40));
    if Journal.scan_rounds (Bytes.to_string b) <> [] then
      Alcotest.failf "flip at byte %d of the round record accepted"
        (pos - view_len)
  done

let test_round_record_digest_mismatch () =
  let forged (b : Batch.t) =
    { b with Batch.digest = Batch.digest_of_txns [| { Txn.key = 1; op = Txn.Read } |] }
  in
  let _, journal, _ = framed_round ~tamper:forged () in
  check Alcotest.int "payload not matching its digest rejected" 0
    (List.length (Journal.scan_rounds journal))

(* --- QCheck: random crash points ---------------------------------------- *)

(* Order every durable batch once more, one round past the frontier per
   durable round, and run to quiescence: the duplicate-reply cache must
   answer each one from its first execution. Returns the replies sent,
   as (client, round, result digest). *)
let reorder_durable exec engine replies durable =
  let frontier = List.length durable in
  List.iter
    (fun (round, slots) ->
      Array.iter
        (fun (a : Acceptance.t) ->
          Exec.notify exec { a with Acceptance.round = frontier + round })
        slots)
    durable;
  Engine.run engine ~until:(Engine.now engine + quiesce);
  List.rev !replies

let reply_log () =
  let replies = ref [] in
  let respond _ = function
    | Rcc_messages.Msg.Response { client; round; result_digest; _ } ->
        replies := (client, round, result_digest) :: !replies
    | _ -> ()
  in
  (replies, respond)

(* Recovery must rebuild what live execution of the durable prefix built:
   the oracle's KV state, and the live execute stage's ledger head,
   txn-table rows and duplicate-reply cache — per-instance counts, and
   the answer it gives each durable batch ordered again. *)
let prop_crash_point =
  qtest ~count:40 "replay == execution at random crash points"
    QCheck2.Gen.(
      triple (int_range 0 1_000) (int_range 1 20) (int_range 0 6))
    (fun (seed, durable_n, lost_n) ->
      let engine = Engine.create () in
      let disk = Sim_disk.create ~seed:(seed + 1) in
      let durable = mk_rounds ~seed durable_n in
      let j = log_and_flush ~engine ~disk durable in
      (* More work arrives, then the power goes out before the group
         commit: everything past the flushed prefix is lost. *)
      let lost =
        List.map (fun (r, s) -> (r + durable_n, s)) (mk_rounds ~seed:(seed + 7) lost_n)
      in
      List.iter
        (fun (round, slots) -> Journal.log_round j ~round ~primaries slots)
        lost;
      Journal.halt j;
      let recovered_engine = Engine.create () and live_engine = Engine.create () in
      let recovered_replies, respond = reply_log () in
      let rv, (exec, ledger, store, txn_table) =
        recover_exec ~engine:recovered_engine ~respond disk
      in
      let live_replies, respond = reply_log () in
      let live, live_ledger, live_store, live_table =
        execute_live ~engine:live_engine ~respond durable
      in
      live_replies := [];
      rv.Journal.r_frontier = durable_n
      && Ledger.next_round ledger = durable_n
      && Result.is_ok (Ledger.validate ledger)
      && String.equal
           (Kv.state_digest (oracle_store durable))
           (Kv.state_digest store)
      && String.equal (Ledger.head_hash live_ledger) (Ledger.head_hash ledger)
      && List.for_all
           (fun (round, _) ->
             Txn_table.find live_table ~round = Txn_table.find txn_table ~round)
           durable
      && Exec.replied_retained live = Exec.replied_retained exec
      &&
      let again = reorder_durable exec recovered_engine recovered_replies durable in
      again = reorder_durable live live_engine live_replies durable
      && List.length again = 2 * durable_n
      && List.for_all (fun (_, round, _) -> round < durable_n) again
      && String.equal (Kv.state_digest live_store) (Kv.state_digest store))

(* A reply-cache entry rebuilt by replay keeps its batch id and instance,
   so once the stable floor evicts it, a retransmission of the batch that
   is ordered again is skipped — exactly as on the replica that never
   went down. *)
let test_recovered_dedup_survives_eviction () =
  let rng = Rng.create 3 in
  let next_id = ref 1 in
  let round0 = mk_round ~next_id ~rng 0 in
  let round1 =
    [| { (round0.(0)) with Acceptance.round = 1 }; (mk_round ~next_id ~rng 1).(1) |]
  in
  (* The live replica executes round 0 and journals it. *)
  let engine = Engine.create () in
  let disk = Sim_disk.create ~seed:12 in
  let live, live_ledger, live_store, _ = fresh_exec engine in
  let j = Journal.attach ~engine ~costs:Costs.default ~disk ~self:0 () in
  Exec.set_persist live { (persist_to j) with Exec.p_snapshot = (fun _ ~blocks:_ -> ()) };
  Array.iter (Exec.notify live) round0;
  Engine.run engine ~until:(Engine.ms 100);
  (* A fresh incarnation recovers from the disk. *)
  let recovered_engine = Engine.create () in
  let rv, (recovered, ledger, store, _) =
    recover_exec ~engine:recovered_engine disk
  in
  check Alcotest.int "round 0 recovered" 1 rv.Journal.r_frontier;
  (* Both stabilize past round 0, evicting its replies; then instance 0's
     batch is ordered again at round 1. *)
  List.iter
    (fun (exec, engine) ->
      Exec.on_stable exec ~instance:0 ~seq:1;
      Exec.on_stable exec ~instance:1 ~seq:1;
      check Alcotest.int "round 0's replies evicted" 2
        (Exec.replied_evicted exec);
      Array.iter (Exec.notify exec) round1;
      Engine.run engine ~until:(Engine.now engine + Engine.ms 100);
      check Alcotest.int "round 1 committed" 2 (Exec.next_round exec))
    [ (live, engine); (recovered, recovered_engine) ];
  let txns (a : Acceptance.t) = Batch.txn_count a.batch in
  check Alcotest.int "live: retransmission skipped"
    (txns round0.(0) + txns round0.(1) + txns round1.(1))
    (Exec.executed_txns live);
  (* Replay is recovery, not execution: only round 1 counts here. *)
  check Alcotest.int "recovered: retransmission skipped" (txns round1.(1))
    (Exec.executed_txns recovered);
  check Alcotest.string "same KV state as the live replica"
    (Kv.state_digest live_store) (Kv.state_digest store);
  check Alcotest.string "same ledger head as the live replica"
    (Ledger.head_hash live_ledger) (Ledger.head_hash ledger)

(* --- compaction: differential recovery oracle ------------------------------ *)

(* One writer step, as the execute stage issues them. *)
type writer_op =
  | W_round of bool  (** the next round; speculative or not *)
  | W_stable of int  (** raise the stable floor by up to this much *)
  | W_rollback of int  (** roll back to a frontier at or above the floor *)
  | W_view  (** swap the primaries later rounds are journaled with *)
  | W_snapshot  (** capture the state after every round so far *)
  | W_tick of int  (** let this many µs of disk time pass *)
  | W_faults of Sim_disk.faults

let writer_ops ~seed ~len =
  let rng = Rng.create seed in
  List.init len (fun _ ->
      match Rng.int rng 20 with
      | k when k < 7 -> W_round (Rng.int rng 3 = 0)
      | k when k < 10 -> W_stable (Rng.int rng 6)
      | 10 -> W_rollback (Rng.int rng 8)
      | 11 -> W_view
      | k when k < 15 -> W_snapshot
      | k when k < 18 -> W_tick (Rng.int rng 600)
      | _ -> W_faults (Sim_disk.uniform_faults [| 0.0; 0.0; 0.05; 0.3 |].(Rng.int rng 4)))

(* The checkpoint a replica that executed [history] would capture. *)
let snapshot_of history =
  let _, ledger, store, _ = execute_live history in
  let seq = List.length history in
  (* Generated batches never repeat, so the reply cache holds one entry
     per batch: (client, digest, round, result digest). *)
  let reply round (a : Acceptance.t) =
    let digest = a.batch.Batch.digest in
    ( a.batch.Batch.client,
      digest,
      round,
      Rcc_crypto.Sha256.digest_list
        [ digest; Rcc_common.Bytes_util.u64_string (Int64.of_int round) ] )
  in
  {
    Snapshot.seq;
    blocks = Ledger.prefix ledger ~upto:seq;
    kv = Some (Kv.entries store);
    replied =
      List.concat_map
        (fun (round, slots) -> Array.to_list (Array.map (reply round) slots))
        history;
  }

(* Drive the same writer sequence into a compacting disk and a shadow
   disk with the same seed, so both draw the same fault stream; then
   crash (or drain) both writers. *)
let run_writer ~seed ops ~crash =
  let engine = Engine.create () in
  let disk = Sim_disk.create ~seed and shadow = Sim_disk.create_shadow ~seed in
  let journals =
    List.map
      (fun disk ->
        Journal.attach ~engine ~costs:Costs.default ~disk ~self:0 ~primaries ())
      [ disk; shadow ]
  in
  let each f = List.iter f journals in
  let rng = Rng.create (seed + 1) and next_id = ref (1 + (1_000 * seed)) in
  let history = ref [] (* newest first *) and floor = ref 0 in
  let view = ref primaries in
  let next () = List.length !history in
  List.iter
    (function
      | W_round speculative ->
          let round = next () in
          let slots = mk_round ~next_id ~rng ~speculative round in
          history := (round, slots) :: !history;
          each (fun j -> Journal.log_round j ~round ~primaries:!view slots)
      | W_stable k ->
          floor := min (next ()) (!floor + k);
          each (fun j -> Journal.log_stable j ~floor:!floor)
      | W_rollback k ->
          if next () > !floor then begin
            let frontier = !floor + (k mod (next () - !floor)) in
            history := List.filter (fun (r, _) -> r < frontier) !history;
            each (fun j -> Journal.log_rollback j ~frontier)
          end
      | W_view -> view := List.rev !view
      | W_snapshot ->
          if next () > 0 then begin
            let snap = snapshot_of (List.rev !history) in
            each (fun j -> write_snap j snap)
          end
      | W_tick us -> Engine.run engine ~until:(Engine.now engine + Engine.us us)
      | W_faults f -> List.iter (fun d -> Sim_disk.set_faults d f) [ disk; shadow ])
    ops;
  if crash then each Journal.halt
  else Engine.run engine ~until:(Engine.now engine + Engine.ms 100);
  (disk, shadow)

(* Recovery from each disk: the [recovery] record, KV digest and head. *)
let recovered disk =
  let rv, (_, ledger, store, _) = recover_exec disk in
  (rv, Kv.state_digest store, Ledger.head_hash ledger)

(* Cases where compaction dropped bytes, and where it did so on a disk
   that had taken a fault: the oracle must exercise both. *)
let oracle_compacted = ref 0
let oracle_compacted_faulty = ref 0

(* Recovery from the compacted disk must equal recovery from the same
   disk never compacted: the same [recovery] record, KV digest and
   ledger head. *)
let prop_compaction_oracle =
  qtest ~count:300 "compacted recovery == uncompacted recovery"
    QCheck2.Gen.(triple (int_range 0 100_000) (int_range 10 80) bool)
    (fun (seed, len, crash) ->
      let disk, shadow = run_writer ~seed (writer_ops ~seed ~len) ~crash in
      if Sim_disk.journal_bytes disk < Sim_disk.journal_bytes shadow then begin
        incr oracle_compacted;
        if Sim_disk.faults_injected disk > 0 then incr oracle_compacted_faulty
      end;
      Sim_disk.fault_log disk = Sim_disk.fault_log shadow
      && recovered disk = recovered shadow)

(* The two ways compaction could lose what recovery needs, each pinned
   by a fixed writer sequence: anchoring a slot that does not read back,
   and dropping past a faulted record. *)
let test_compaction_edges () =
  let corrupt = { Sim_disk.no_faults with Sim_disk.corrupt = 1.0 } in
  let rounds n = List.init n (fun _ -> W_round false) in
  let same what ~compacts ops =
    let disk, shadow = run_writer ~seed:5 ops ~crash:false in
    let (rv, kv, head) = recovered disk and (rv', kv', head') = recovered shadow in
    check Alcotest.int (what ^ ": frontier") rv'.Journal.r_frontier
      rv.Journal.r_frontier;
    check Alcotest.int (what ^ ": dropped bytes") rv'.Journal.r_dropped_bytes
      rv.Journal.r_dropped_bytes;
    check Alcotest.bool (what ^ ": same recovery") true (rv = rv');
    check Alcotest.string (what ^ ": same KV") kv' kv;
    check Alcotest.string (what ^ ": same head") head' head;
    check Alcotest.bool (what ^ ": compacted") compacts
      (Sim_disk.journal_bytes disk < Sim_disk.journal_bytes shadow)
  in
  (* Slot 2 anchors and the area drops below it; the slot written at 4
     is corrupt, so recovery falls back to slot 2 and needs rounds 2-3. *)
  same "corrupt slot" ~compacts:true
    (rounds 2 @ [ W_snapshot ] @ rounds 2
    @ [ W_stable 4; W_tick 1_000; W_faults corrupt; W_snapshot; W_tick 1_000 ]);
  (* The first flush is corrupt: the scan stops there, so compaction
     must too, however far below the anchor the records lie. *)
  same "corrupt record" ~compacts:false
    ([ W_faults corrupt ] @ rounds 1 @ [ W_tick 1_000; W_faults Sim_disk.no_faults ]
    @ rounds 3 @ [ W_snapshot; W_stable 4; W_tick 1_000 ]
    @ rounds 1)

let test_oracle_coverage () =
  check Alcotest.bool "some cases compacted" true (!oracle_compacted >= 60);
  check Alcotest.bool "some compacted a faulty disk" true
    (!oracle_compacted_faulty >= 30)

(* --- bounded footprint ------------------------------------------------------ *)

(* A journaled MultiZ cluster run for T and for 2T: the journal areas
   after 2T exceed those after T by at most two boundary periods of
   rounds per replica, where an append-only area would have doubled. *)
let test_bounded_footprint () =
  let n = 4 and checkpoint_interval = 16 in
  let run seconds =
    let cfg =
      Rcc_runtime.Config.make ~protocol:Rcc_runtime.Config.MultiZ ~n
        ~batch_size:10 ~clients:40 ~records:1_000
        ~duration:(Engine.of_seconds seconds)
        ~warmup:(Engine.of_seconds 0.05) ~journal:true ~seed:3 ()
    in
    let c =
      Rcc_runtime.Cluster.build
        { cfg with Rcc_runtime.Config.checkpoint_interval }
    in
    ignore (Rcc_runtime.Cluster.run c);
    let flushed = ref 0 in
    for r = 0 to n - 1 do
      Option.iter
        (fun j -> flushed := !flushed + Journal.bytes_flushed j)
        (Rcc_runtime.Cluster.journal_of c r)
    done;
    ( Rcc_runtime.Cluster.journal_area c,
      !flushed,
      Ledger.next_round (Rcc_runtime.Cluster.ledger c 0) )
  in
  let area_t, flushed_t, rounds_t = run 0.15 in
  let area_2t, flushed_2t, _ = run 0.3 in
  check Alcotest.bool "the run crossed eight boundaries" true
    (rounds_t > 8 * 4 * checkpoint_interval);
  let per_period = flushed_t / rounds_t * 4 * checkpoint_interval in
  check Alcotest.bool "the area after T is not the whole journal" true
    (area_t < flushed_t / 2);
  check Alcotest.bool "journal grew with the run" true
    (flushed_2t - flushed_t > 2 * per_period);
  check Alcotest.bool
    (Printf.sprintf "area after 2T (%d B) within two periods of after T (%d B)"
       area_2t area_t)
    true
    (area_2t <= area_t + (2 * per_period))

(* --- rollback before a slot ------------------------------------------------ *)

(* Speculative rounds 0-2 execute, instance 0 rolls back to round 2 and
   re-proposes rounds 2 and 3, so round 3's commit captures boundary 4
   while the rollback record is still buffered. The replica then halts
   at the first disk completion after the rollback. Whichever write that
   was, the disk must not hold a slot above the rollback's frontier
   unless it also holds the rollback. *)
let test_rollback_flushed_before_slot () =
  let engine = Engine.create () in
  let disk = Sim_disk.create ~seed:15 in
  let live, _, _, _ = fresh_exec ~checkpoint_interval:1 engine in
  let j = Journal.attach ~engine ~costs:Costs.default ~disk ~self:0 () in
  Exec.set_persist live (persist_to j);
  let rng = Rng.create 62 and next_id = ref 62_000_000 in
  let propose round =
    Array.iter (Exec.notify live) (mk_round ~next_id ~rng ~speculative:true round)
  in
  List.iter propose [ 0; 1; 2 ];
  Engine.run engine ~until:(Engine.now engine + Engine.ms 100);
  check Alcotest.int "rounds 0-2 durable" 2 (Journal.durable_round j);
  Exec.rollback_to live ~frontier:2 ~instance:0;
  List.iter propose [ 2; 3 ];
  let writes = Sim_disk.writes disk in
  let deadline = Engine.now engine + Engine.ms 100 in
  while Sim_disk.writes disk = writes && Engine.now engine < deadline do
    Engine.run engine ~until:(Engine.now engine + Engine.us 1)
  done;
  Journal.halt j;
  Engine.run engine ~until:(Engine.now engine + Engine.ms 100);
  check
    Alcotest.(list int)
    "boundary 4 captured after the rollback" [ 4 ]
    (List.map (fun (b : Snapshot.boundary) -> b.b_seq) (Exec.boundaries live));
  let journal = Sim_disk.journal disk in
  let rollback_durable =
    List.exists
      (fun p -> String.sub journal p 5 = "RJL1B")
      (List.init (max 0 (String.length journal - 4)) Fun.id)
  in
  check Alcotest.bool "the first completion made the rollback durable" true
    rollback_durable;
  check
    Alcotest.(list int)
    "no slot above the frontier without the rollback" []
    (List.filter_map
       (fun (seq, _) -> if seq > 2 && not rollback_durable then Some seq else None)
       (Sim_disk.snapshots disk))

(* --- stored form: differential against the flat-string disk ---------------- *)

(* The disk as it was when every stored record and slot was one flat
   string: the reference the spliced stored form must match byte for
   byte, fault for fault. *)
module Flat_disk = struct
  type segment = {
    records : string array;
    rounds : int array;
    mutable count : int;
    mutable intact : int;
    mutable first : int;
  }

  type t = {
    area : segment Queue.t;
    mutable area_bytes : int;
    slot_seq : int array;
    slot_blob : string array;
    slot_ok : bool array;
    mutable anchor : int;
    rng : Rng.t;
    mutable faults : Sim_disk.faults;
    mutable log : string list;
  }

  let create ~seed =
    {
      area = Queue.create ();
      area_bytes = 0;
      slot_seq = [| -1; -1 |];
      slot_blob = [| ""; "" |];
      slot_ok = [| false; false |];
      anchor = -1;
      rng = Rng.create seed;
      faults = Sim_disk.no_faults;
      log = [];
    }

  let roll t p = p > 0.0 && Rng.float t.rng 1.0 < p

  let corrupt_record t record =
    let n = String.length record in
    if n = 0 then record
    else begin
      let pos = Rng.int t.rng n in
      let b = Bytes.of_string record in
      Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0x40));
      Bytes.to_string b
    end

  let store t seg ~round_of ~ok record stored_as =
    let i = seg.count in
    if (not ok) && seg.intact > i then seg.intact <- i;
    seg.records.(i) <- stored_as;
    seg.rounds.(i) <- round_of record;
    seg.count <- i + 1;
    t.area_bytes <- t.area_bytes + String.length stored_as

  let rec append_records t seg ~round_of = function
    | [] -> ()
    | record :: rest ->
        if roll t t.faults.lost then begin
          t.log <- "lost" :: t.log;
          append_records t seg ~round_of rest
        end
        else if roll t t.faults.torn then begin
          t.log <- "torn" :: t.log;
          let n = String.length record in
          let keep = if n <= 1 then 0 else Rng.int t.rng n in
          if keep > 0 then
            store t seg ~round_of ~ok:false record (String.sub record 0 keep)
        end
        else if roll t t.faults.corrupt then begin
          t.log <- "corrupt" :: t.log;
          store t seg ~round_of ~ok:false record (corrupt_record t record);
          append_records t seg ~round_of rest
        end
        else begin
          store t seg ~round_of ~ok:true record record;
          append_records t seg ~round_of rest
        end

  let append t ~round_of records =
    let n = List.length records in
    let seg =
      {
        records = Array.make n "";
        rounds = Array.make n 0;
        count = 0;
        intact = n;
        first = 0;
      }
    in
    append_records t seg ~round_of records;
    if seg.count > 0 then Queue.push seg t.area

  let compact t ~below =
    let dropped = ref 0 and blocked = ref false in
    while (not !blocked) && not (Queue.is_empty t.area) do
      let seg = Queue.peek t.area in
      let i = seg.first in
      if i = seg.count then ignore (Queue.pop t.area)
      else if i < seg.intact && seg.rounds.(i) < below then begin
        dropped := !dropped + String.length seg.records.(i);
        seg.records.(i) <- "";
        seg.first <- i + 1
      end
      else blocked := true
    done;
    t.area_bytes <- t.area_bytes - !dropped;
    !dropped

  let journal t =
    let b = Buffer.create t.area_bytes in
    Queue.iter
      (fun seg ->
        for i = seg.first to seg.count - 1 do
          Buffer.add_string b seg.records.(i)
        done)
      t.area;
    Buffer.contents b

  let write_snapshot t ~check ~seq blob =
    if roll t t.faults.lost then t.log <- "lost" :: t.log
    else begin
      let blob =
        if roll t t.faults.corrupt then begin
          t.log <- "corrupt" :: t.log;
          corrupt_record t blob
        end
        else blob
      in
      let victim =
        if t.anchor >= 0 then 1 - t.anchor
        else if t.slot_seq.(0) <= t.slot_seq.(1) then 0
        else 1
      in
      t.slot_seq.(victim) <- seq;
      t.slot_blob.(victim) <- blob;
      t.slot_ok.(victim) <- check blob
    end

  let promote_anchor t ~floor =
    for i = 0 to 1 do
      if
        t.slot_ok.(i)
        && t.slot_seq.(i) <= floor
        && (t.anchor < 0 || t.slot_seq.(i) > t.slot_seq.(t.anchor))
      then t.anchor <- i
    done;
    if t.anchor < 0 then -1 else t.slot_seq.(t.anchor)

  let invalidate_above t ~frontier =
    for i = 0 to 1 do
      if t.slot_seq.(i) > frontier then begin
        t.slot_seq.(i) <- -1;
        t.slot_blob.(i) <- "";
        t.slot_ok.(i) <- false;
        if t.anchor = i then t.anchor <- -1
      end
    done

  let snapshots t =
    List.sort
      (fun (a, _) (b, _) -> compare b a)
      (List.filter
         (fun (seq, _) -> seq >= 0)
         [ (t.slot_seq.(0), t.slot_blob.(0)); (t.slot_seq.(1), t.slot_blob.(1)) ])

  let fault_log t = List.rev t.log
end

(* A record as alternating chunks: framing, piece, framing, ... The first
   framing chunk is never empty, as a journal record's header is not. *)
let random_chunks rng =
  List.init
    (1 + (2 * Rng.int rng 4))
    (fun i ->
      String.init
        ((if i = 0 then 1 else 0) + Rng.int rng (if i mod 2 = 1 then 200 else 40))
        (fun _ -> Char.chr (Rng.int rng 256)))

let spliced_of_chunks chunks =
  let frame = Buffer.create 64 and at = ref [] and pieces = ref [] in
  List.iteri
    (fun i c ->
      if i mod 2 = 0 then Buffer.add_string frame c
      else begin
        at := Buffer.length frame :: !at;
        pieces := c :: !pieces
      end)
    chunks;
  Sim_disk.spliced ~frame:(Buffer.contents frame)
    ~at:(Array.of_list (List.rev !at))
    (Array.of_list (List.rev !pieces))

type disk_op =
  | D_append of string list list
  | D_compact of int
  | D_snapshot of int * string list
  | D_promote of int
  | D_invalidate of int

let disk_ops rng ~len =
  List.init len (fun _ ->
      match Rng.int rng 10 with
      | k when k < 4 -> D_append (List.init (1 + Rng.int rng 4) (fun _ -> random_chunks rng))
      | 4 | 5 -> D_compact (Rng.int rng 16)
      | 6 | 7 -> D_snapshot (Rng.int rng 16, random_chunks rng)
      | 8 -> D_promote (Rng.int rng 16)
      | _ -> D_invalidate (Rng.int rng 16))

(* The same random operation sequence on the spliced disk and the flat
   reference, at one fault rate: every read-back, count and return value
   must agree after every step. *)
let prop_stored_form =
  qtest ~count:200 "spliced disk == flat-string disk"
    QCheck2.Gen.(triple (int_range 0 100_000) (int_range 0 2) (int_range 1 60))
    (fun (seed, rate, len) ->
      let faults = Sim_disk.uniform_faults [| 0.0; 0.05; 0.3 |].(rate) in
      let disk = Sim_disk.create ~seed and flat = Flat_disk.create ~seed in
      Sim_disk.set_faults disk faults;
      flat.Flat_disk.faults <- faults;
      let round_of s = Char.code s.[0] mod 16 in
      let check s = Hashtbl.hash s land 3 <> 0 in
      let same what a b =
        if a <> b then QCheck2.Test.fail_reportf "%s differs" what
      in
      List.iter
        (fun op ->
          (match op with
          | D_append records ->
              Sim_disk.append disk ~round_of (List.map spliced_of_chunks records);
              Flat_disk.append flat ~round_of (List.map (String.concat "") records)
          | D_compact below ->
              same "compact" (Sim_disk.compact disk ~below)
                (Flat_disk.compact flat ~below)
          | D_snapshot (seq, chunks) ->
              Sim_disk.write_snapshot disk
                ~check:(fun r -> check (Sim_disk.to_string r))
                ~seq (spliced_of_chunks chunks);
              Flat_disk.write_snapshot flat ~check ~seq (String.concat "" chunks)
          | D_promote floor ->
              same "promote_anchor"
                (Sim_disk.promote_anchor disk ~floor)
                (Flat_disk.promote_anchor flat ~floor)
          | D_invalidate frontier ->
              Sim_disk.invalidate_above disk ~frontier;
              Flat_disk.invalidate_above flat ~frontier);
          same "journal" (Sim_disk.journal disk) (Flat_disk.journal flat);
          same "journal_bytes" (Sim_disk.journal_bytes disk)
            flat.Flat_disk.area_bytes;
          same "snapshots" (Sim_disk.snapshots disk) (Flat_disk.snapshots flat);
          same "fault_log" (Sim_disk.fault_log disk) (Flat_disk.fault_log flat))
        (disk_ops (Rng.create (seed + 1)) ~len);
      true)

(* A boundary's spliced slot holds exactly [Snapshot.encode] of the state
   it was captured from, and its KV digest is the one the per-field
   encoding gives: SHA-256 over a domain tag and each triple's three
   u64s. *)
let prop_spliced_snapshot =
  qtest ~count:60 "spliced slot bytes == Snapshot.encode"
    QCheck2.Gen.(pair (int_range 0 100_000) (int_range 0 3))
    (fun (seed, shape) ->
      let rng = Rng.create seed in
      let base = Lazy.force small_base in
      let store = Kv.create () in
      for _ = 1 to Rng.int rng 300 do
        let key =
          match Rng.int rng 4 with
          | 0 -> (1 lsl 22) + Rng.int rng 1000
          | 1 -> -1 - Rng.int rng 1000
          | _ -> Rng.int rng 5000
        in
        Kv.write store ~key ~value:(Rng.int rng 1_000_000)
      done;
      let kv = if shape = 0 then None else Some (Kv.entries store) in
      let snap =
        {
          base with
          Snapshot.kv;
          replied =
            List.init (Rng.int rng 5) (fun c ->
                (c, String.make (Rng.int rng 40) 'd', Rng.int rng 3, "r"));
        }
      in
      let section = Option.map (fun _ -> Snapshot.capture_kv store) kv in
      let b =
        Snapshot.boundary ~seq:snap.seq ~head:"" ~kv:section
          ~replied:snap.replied
      in
      let reference_digest =
        match kv with
        | None -> ""
        | Some entries ->
            let ctx = Rcc_crypto.Sha256.init () in
            Rcc_crypto.Sha256.update ctx "rcc-snapshot-kv";
            Array.iter
              (fun (k, v, ver) ->
                List.iter
                  (fun x ->
                    let u = Bytes.create 8 in
                    Bytes.set_int64_be u 0 (Int64.of_int x);
                    Rcc_crypto.Sha256.update ctx (Bytes.to_string u))
                  [ k; v; ver ])
              entries;
            Rcc_crypto.Sha256.finalize ctx
      in
      let engine = Engine.create () in
      let disk = Sim_disk.create ~seed:9 in
      let j =
        Journal.attach ~engine ~costs:Costs.default ~disk ~self:0 ~primaries ()
      in
      Journal.write_snapshot j b ~blocks:snap.blocks;
      Engine.run engine ~until:(Engine.now engine + Engine.ms 100);
      let encoded = Snapshot.encode snap in
      section = Option.map Snapshot.kv_section kv
      && Snapshot.encode_boundary b ~blocks:snap.blocks = encoded
      && (match Sim_disk.snapshots disk with
         | [ (seq, blob) ] ->
             seq = snap.seq
             && String.sub blob 20 (String.length blob - 20) = encoded
         | _ -> false)
      && Journal.load_snapshot disk ~primaries = Some snap
      && Lazy.force b.b_kv_digest = reference_digest
      && Snapshot.kv_digest kv = reference_digest)

(* --- disk checksum -------------------------------------------------------- *)

module Xxh64 = Rcc_journal.Xxh64

(* Published XXH64 (seed 0) values: the empty input, inputs below one
   32-byte stripe, and one past it. *)
let test_xxh64_vectors () =
  List.iter
    (fun (input, want) ->
      check Alcotest.string (Printf.sprintf "XXH64 %S" input) want
        (Printf.sprintf "%016Lx" (Xxh64.digest input)))
    [
      ("", "ef46db3751d8e999");
      ("a", "d24ec4f1a98c6e5b");
      ("abc", "44bc2cf5ad770999");
      ("Nobody inspects the spammish repetition", "fbcea83c8a378bf1");
    ]

(* The slot checksum streams three pieces (framing head, KV section,
   framing tail) and the record checksum the gaps between payloads: any
   split of the same bytes, through [update] or [update_sub] of a wider
   string, and a reused state, must give the one-shot value. *)
let prop_xxh64_streaming =
  qtest ~count:300 "XXH64: streaming over any split = one-shot"
    QCheck2.Gen.(
      pair (string_size (int_range 0 300)) (list_size (int_range 0 8) nat))
    (fun (msg, cuts) ->
      let len = String.length msg in
      let cuts =
        List.sort_uniq compare (List.map (fun c -> c mod (len + 1)) cuts)
      in
      let wide = "<<" ^ msg ^ ">>" in
      let t = Xxh64.create () in
      Xxh64.update t "stale bytes from an earlier stream";
      Xxh64.reset t;
      let last =
        List.fold_left
          (fun pos cut ->
            if pos mod 2 = 0 then Xxh64.update_sub t wide (2 + pos) (cut - pos)
            else Xxh64.update t (String.sub msg pos (cut - pos));
            cut)
          0 cuts
      in
      Xxh64.update_sub t wide (2 + last) (len - last);
      Int64.equal (Xxh64.finalize t) (Xxh64.digest msg)
      && Int64.equal (Xxh64.finalize t) (Xxh64.digest msg))

(* --- golden bytes --------------------------------------------------------- *)

(* A fixed writer sequence on an honest disk: plain rounds, a speculative
   round holding a null batch, a rollback, a stable floor, a change of
   primaries (which writes a view record) and a snapshot slot. The
   digests were recorded before the journal moved onto the shared wire
   layer, and re-recorded when its checksums became XXH64 (only the 8
   checksum bytes of each record and slot moved); a writer and reader
   changed together would still round-trip, so this pins the bytes
   themselves. The slot was re-recorded once more when replayed blocks
   began to carry [Block.certificate_placeholder]: the slot's length is
   unchanged, only its certificate fields and checksum moved. The area
   is pinned before the
   snapshot write, and again after it: the slot (seq 3, at the durable
   floor) becomes the anchor, and the area below round 3 is dropped. *)
let test_journal_golden () =
  let rng = Rng.create 77 in
  let next_id = ref 500 in
  let slot ?(speculative = false) ~round instance batch =
    { Acceptance.instance; round; batch; cert = [ 0; 1; 3 ]; speculative;
      history = "" }
  in
  let fresh instance round =
    let id = !next_id in
    incr next_id;
    slot ~round instance (mk_batch ~id ~client:(Rng.int rng 8) ~rng)
  in
  let engine = Engine.create () in
  let disk = Sim_disk.create ~seed:21 in
  let j =
    Journal.attach ~engine ~costs:Costs.default ~disk ~self:0 ~primaries ()
  in
  for round = 0 to 2 do
    Journal.log_round j ~round ~primaries [| fresh 0 round; fresh 1 round |]
  done;
  Journal.log_round j ~round:3 ~primaries
    [|
      { (fresh 0 3) with Acceptance.speculative = true };
      slot ~speculative:true ~round:3 1 (Batch.null ~round:3);
    |];
  Journal.log_rollback j ~frontier:3;
  Journal.log_stable j ~floor:3;
  Journal.log_round j ~round:3 ~primaries:[ 1; 2 ]
    [| fresh 0 3; slot ~round:3 1 (Batch.null ~round:3) |];
  Journal.log_round j ~round:4 ~primaries:[ 1; 2 ] [| fresh 0 4; fresh 1 4 |];
  Engine.run engine ~until:(Engine.now engine + Engine.ms 100);
  let sha = Rcc_crypto.Sha256.hex_digest in
  check Alcotest.string "journal area" "e5b8408b5875c126592b0f23279445e4a3521575ca128576f8286e852bcb823b" (sha (Sim_disk.journal disk));
  check Alcotest.int "journal bytes" 3022 (Sim_disk.journal_bytes disk);
  let full = Sim_disk.journal disk in
  check Alcotest.int "rounds scanned" 6
    (List.length (Journal.scan_rounds full));
  write_snap j (small_snapshot ());
  Engine.run engine ~until:(Engine.now engine + Engine.ms 100);
  check
    Alcotest.(list (pair int string))
    "snapshot slot" [ (3, "d1b6fb431b78d9b5199b74c38bd9d8892d6c158ec3dda5568b064dc8a1045191") ]
    (List.map (fun (seq, blob) -> (seq, sha blob)) (Sim_disk.snapshots disk));
  let compacted = Sim_disk.journal disk in
  check Alcotest.string "compacted area" "c61c25bb58f2aae1b5f1861b7e169131ab125fc6dd1de35d9f26204a81a6b02b" (sha compacted);
  check Alcotest.int "compacted bytes" 1492 (Sim_disk.journal_bytes disk);
  check Alcotest.bool "a suffix of the full area" true
    (String.ends_with ~suffix:compacted full);
  check Alcotest.int "rounds left: both round 3s and round 4" 3
    (List.length (Journal.scan_rounds (Sim_disk.journal disk)))

(* Framed records whose checksums hold but whose bodies carry a length or
   count of 0x3FFF_FFFF_FFFF_FFFF (max_int once read): scanning drops
   them, it never raises. *)
let test_max_length_probe () =
  let huge = "\x3f\xff\xff\xff\xff\xff\xff\xff" in
  let record kind body =
    let len = Bytes.create 8 and sum = Bytes.create 8 in
    Bytes.set_int64_be len 0 (Int64.of_int (String.length body));
    Bytes.set_int64_be sum 0 (Rcc_journal.Xxh64.digest body);
    String.concat ""
      [ "RJL1"; String.make 1 kind; Bytes.to_string len;
        Bytes.to_string sum; body ]
  in
  let u64 v = Rcc_common.Bytes_util.u64_string (Int64.of_int v) in
  List.iter
    (fun (what, journal) ->
      match Journal.scan_rounds journal with
      | [] -> ()
      | _ -> Alcotest.failf "%s: probe accepted" what
      | exception e ->
          Alcotest.failf "%s: raised %s" what (Printexc.to_string e))
    [
      ("view list", record 'V' huge);
      ("round primaries", record 'R' (u64 0 ^ huge));
      ("slot count", record 'R' (u64 0 ^ u64 0 ^ huge));
      ( "txn count",
        record 'R' (u64 0 ^ u64 0 ^ u64 1 ^ u64 0 ^ "\x00" ^ u64 0 ^ u64 1
                    ^ u64 2 ^ huge) );
      ( "digest length",
        record 'R' (u64 0 ^ u64 0 ^ u64 1 ^ u64 0 ^ "\x00" ^ u64 0 ^ u64 1
                    ^ u64 2 ^ u64 0 ^ huge) );
      ("body length", "RJL1R" ^ huge ^ String.make 8 '\x00');
    ]

let suite =
  ( "journal",
    [
      Alcotest.test_case "sim-disk determinism" `Quick test_disk_determinism;
      Alcotest.test_case "sim-disk snapshot slots" `Quick
        test_disk_snapshot_slots;
      Alcotest.test_case "sim-disk anchor and compaction" `Quick
        test_disk_anchor_and_compaction;
      Alcotest.test_case "sim-disk golden bytes" `Quick test_disk_golden;
      Alcotest.test_case "group commit crash" `Quick test_group_commit_crash;
      Alcotest.test_case "replay matches execution" `Quick
        test_replay_matches_execution;
      Alcotest.test_case "rollback record" `Quick test_replay_rollback;
      Alcotest.test_case "rollback erases newer slots" `Quick
        test_rollback_erases_newer_slot;
      Alcotest.test_case "rollback flushed before a slot" `Quick
        test_rollback_flushed_before_slot;
      Alcotest.test_case "unproven speculation truncates" `Quick
        test_replay_stops_at_unproven_speculation;
      Alcotest.test_case "snapshot + suffix" `Quick test_snapshot_plus_suffix;
      Alcotest.test_case "snapshot slot round trip" `Quick
        test_snapshot_slot_roundtrip;
      Alcotest.test_case "snapshot slot flip sweep" `Quick
        test_snapshot_slot_flip_sweep;
      Alcotest.test_case "fault sweep never diverges" `Quick test_fault_sweep;
      Alcotest.test_case "round record round trip" `Quick
        test_round_record_roundtrip;
      Alcotest.test_case "round record flip sweep" `Quick
        test_round_record_flip_sweep;
      Alcotest.test_case "round record digest mismatch" `Quick
        test_round_record_digest_mismatch;
      Alcotest.test_case "recovered reply cache settles evicted batches"
        `Quick test_recovered_dedup_survives_eviction;
      Alcotest.test_case "XXH64 vectors" `Quick test_xxh64_vectors;
      prop_xxh64_streaming;
      Alcotest.test_case "journal golden bytes" `Quick test_journal_golden;
      Alcotest.test_case "max-length probe" `Quick test_max_length_probe;
      prop_crash_point;
      Alcotest.test_case "compaction edge cases" `Quick test_compaction_edges;
      prop_compaction_oracle;
      Alcotest.test_case "compaction oracle coverage" `Quick
        test_oracle_coverage;
      prop_stored_form;
      prop_spliced_snapshot;
      Alcotest.test_case "bounded footprint" `Slow test_bounded_footprint;
    ] )
