(* Wall-clock performance harness for the simulator's hot paths.

   Runs a fixed-seed smoke cluster plus allocation-counting microbenches
   over the three inner loops (event heap, Net.send, codec) and writes
   the run as one JSON object, to FILE with --out and to stdout without:

     dune exec bench/perf.exe -- --smoke --label ci --out simperf.json
     dune exec bench/perf.exe -- --smoke --digest-only   # CI determinism gate
     dune exec bench/perf.exe -- --heap   # live heap of one multiz-journal
                                          # cluster, by component

   Reported per run:
   - events/sec            simulator events retired per wall-clock second
   - sim_ns_per_wall_ms    simulated nanoseconds advanced per wall millisecond
   - words_per_event       minor-heap words allocated per event (Gc.minor_words)
   - sha256_blocks_per_event  SHA-256 compressions per event (exact; CI
                           gates it against bench/hash.blocks)
   - report_digest         SHA-256 over the deterministic report fields
                           (excludes wall time), the fixed-seed determinism
                           fingerprint CI compares against bench/simperf.digest
   - heap/engine/net/codec/journal/conflict/snapshot microbench rows (ns/op,
     words/op and SHA-256 blocks/op), and the disk-footprint, kv-store and
     round-history rows (build ns and footprint words)

   Wall time is [Sys.time] (process CPU time): the simulator is
   single-threaded and this keeps the harness dependency-free. *)

module Engine = Rcc_sim.Engine
module Net = Rcc_sim.Net
module Config = Rcc_runtime.Config
module Report = Rcc_runtime.Report
module Heap = Rcc_common.Binary_heap
module Msg = Rcc_messages.Msg
module Batch = Rcc_messages.Batch
module Codec = Rcc_messages.Codec

(* --- deterministic report fingerprint ---------------------------------- *)

(* Every field that is a pure function of the seed; wall_seconds is the
   one measurement that may (and should) change across optimizations. *)
let canonical_report (r : Report.t) =
  let b = Buffer.create 512 in
  Printf.bprintf b "%s n=%d batch=%d tput=%.3f avg=%.6f p50=%.6f p99=%.6f\n"
    r.Report.protocol r.Report.n r.Report.batch_size r.Report.throughput
    r.Report.avg_latency r.Report.p50_latency r.Report.p99_latency;
  Printf.bprintf b
    "committed=%d rounds=%d valid=%b vc=%d collusions=%d contracts=%d \
     repl=%d msgs=%d bytes=%d events=%d\n"
    r.Report.committed_txns r.Report.ledger_rounds r.Report.ledger_valid
    r.Report.view_changes r.Report.collusions_detected r.Report.contract_bytes
    r.Report.replacements r.Report.messages r.Report.bytes_sent
    r.Report.sim_events;
  Array.iter
    (fun (t, v) -> Printf.bprintf b "tl %.4f %.4f\n" t v)
    r.Report.timeline;
  Array.iter
    (fun (s : Report.instance_stats) ->
      Printf.bprintf b "i%d tput=%.3f avg=%.6f p50=%.6f p99=%.6f txns=%d vc=%d\n"
        s.Report.instance s.Report.i_throughput s.Report.i_avg_latency
        s.Report.i_p50_latency s.Report.i_p99_latency s.Report.i_txns
        s.Report.i_view_changes)
    r.Report.per_instance;
  Buffer.contents b

let report_digest r = Rcc_crypto.Sha256.hex_digest (canonical_report r)

(* --- smoke cluster ------------------------------------------------------ *)

type smoke = {
  s_events : int;
  s_wall : float;
  s_sim_ns : int;
  s_minor_words : float;
  s_blocks : int;  (* SHA-256 compressions *)
  s_throughput : float;
  s_digest : string;
}

let smoke_config ~duration ~clients =
  Config.make ~protocol:Config.MultiP ~n:16 ~batch_size:100 ~clients
    ~duration ~warmup:(Engine.of_seconds 0.15) ~seed:42 ()

let run_smoke ~duration ~clients =
  let cfg = smoke_config ~duration ~clients in
  Gc.full_major ();
  let words0 = Gc.minor_words () in
  let blocks0 = Rcc_crypto.Sha256.compressions () in
  let report = Rcc_runtime.Cluster.run_config cfg in
  let words1 = Gc.minor_words () in
  let blocks1 = Rcc_crypto.Sha256.compressions () in
  {
    s_events = report.Report.sim_events;
    s_wall = report.Report.wall_seconds;
    s_sim_ns = duration;
    s_minor_words = words1 -. words0;
    s_blocks = blocks1 - blocks0;
    s_throughput = report.Report.throughput;
    s_digest = report_digest report;
  }

(* --- microbenches ------------------------------------------------------- *)

(* ns/op, minor-words/op and SHA-256 blocks/op over [iters] calls of
   [f], called once per op. Coarse by design: this is an allocation and
   hash-work regression tripwire and a trajectory row, not a
   Bechamel-grade estimate (bench/micro.ml has those). Blocks are exact:
   [Sha256.compressions] counts every 64-byte compression. *)
let measure ~iters f =
  Gc.full_major ();
  let words0 = Gc.minor_words () in
  let blocks0 = Rcc_crypto.Sha256.compressions () in
  let t0 = Sys.time () in
  for _ = 1 to iters do
    f ()
  done;
  let wall = Sys.time () -. t0 in
  let words = Gc.minor_words () -. words0 in
  let blocks = Rcc_crypto.Sha256.compressions () - blocks0 in
  let n = float_of_int iters in
  (wall *. 1e9 /. n, words /. n, float_of_int blocks /. n)

type micro_row = {
  m_name : string;
  m_ns : float;
  m_words : float;
  m_blocks : float;  (* SHA-256 compressions per op *)
}

let bench_heap () =
  let n = 1024 in
  let h = Heap.create ~capacity:(2 * n) ~dummy:0 () in
  let prios = Array.init n (fun i -> (i * 7919) land 0xffff) in
  (* One op = push n then pop n; report per push+pop pair. *)
  let ns, words, blocks =
    measure ~iters:200 (fun () ->
        for i = 0 to n - 1 do
          Heap.push h ~priority:prios.(i) i
        done;
        while not (Heap.is_empty h) do
          ignore (Heap.min_priority h);
          ignore (Heap.pop_min_exn h)
        done)
  in
  let per = float_of_int n in
  {
    m_name = "heap-push-pop";
    m_ns = ns /. per;
    m_words = words /. per;
    m_blocks = blocks /. per;
  }

let make_net ~rules =
  let engine = Engine.create () in
  let rng = Rcc_common.Rng.create 7 in
  let net =
    Net.create engine ~nodes:16 ~latency:(Engine.us 50) ~jitter:0 ~gbps:10.0
      ~rng ()
  in
  for i = 0 to 15 do
    Net.register net i (fun ~src:_ ~size:_ _ -> ())
  done;
  if rules then begin
    ignore (Net.add_drop_rule net (fun ~src:_ ~dst:_ _ -> false));
    ignore (Net.add_delay_rule net (fun ~src:_ ~dst:_ -> 0));
    ignore (Net.add_dup_rule net (fun ~src:_ ~dst:_ _ -> 0))
  end;
  (engine, net)

let bench_net ~rules =
  let engine, net = make_net ~rules in
  (* One op = a 15-destination broadcast, drained to a bounded horizon
     (running to [max_int] would park [now] there and overflow the next
     send's schedule). *)
  let ns, words, blocks =
    measure ~iters:2000 (fun () ->
        for dst = 1 to 15 do
          Net.send net ~src:0 ~dst ~size:5400 ()
        done;
        Engine.run engine ~until:(Engine.now engine + Engine.ms 10))
  in
  let per = 15.0 in
  {
    m_name = (if rules then "net-send-3rules" else "net-send-0rules");
    m_ns = ns /. per;
    m_words = words /. per;
    m_blocks = blocks /. per;
  }

(* Engine schedule + run at a fixed live population: 350 events that
   each re-schedule themselves 1-1000 ns ahead when they fire (about the
   pending set of a rated cluster), once alone and once above 2 500
   entries due 15 s out that never fire within the measurement — the
   completed open-loop requests' client timeouts a run leaves in the
   heap. One op = one event fired and re-scheduled. *)
let bench_engine ~dead =
  let engine = Engine.create () in
  let live = 350 in
  let delays = Array.init live (fun i -> 1 + (i * 7919 mod 1000)) in
  let rec fire i () = Engine.schedule_after engine delays.(i) (fire i) in
  for i = 0 to live - 1 do
    Engine.schedule_after engine delays.(i) (fire i)
  done;
  for _ = 1 to dead do
    Engine.schedule_after engine (Engine.s 15) ignore
  done;
  let events0 = Engine.events_processed engine in
  let iters = 200 in
  let ns, words, blocks =
    measure ~iters (fun () ->
        Engine.run engine ~until:(Engine.now engine + Engine.us 5))
  in
  let per =
    float_of_int (Engine.events_processed engine - events0)
    /. float_of_int iters
  in
  {
    m_name =
      (if dead = 0 then "engine-schedule-run"
       else Printf.sprintf "engine-schedule-run-%ddead" dead);
    m_ns = ns /. per;
    m_words = words /. per;
    m_blocks = blocks /. per;
  }

let bench_txns () =
  Array.init 100 (fun i -> Rcc_workload.Txn.{ key = i; op = Write (i * 31) })

let bench_codec () =
  let secret, _ = Rcc_crypto.Signature.keygen (Rcc_common.Rng.create 3) in
  let batch = Batch.create ~id:1 ~client:0 ~txns:(bench_txns ()) ~secret in
  let msg = Msg.Pre_prepare { instance = 0; view = 0; seq = 9; batch } in
  let ns, words, blocks =
    measure ~iters:2000 (fun () ->
        let wire = Codec.encode msg in
        match Codec.decode wire with Ok _ -> () | Error e -> failwith e)
  in
  {
    m_name = "codec-roundtrip-100txn";
    m_ns = ns;
    m_words = words;
    m_blocks = blocks;
  }

let bench_msg_size () =
  let secret, _ = Rcc_crypto.Signature.keygen (Rcc_common.Rng.create 3) in
  let batch = Batch.create ~id:1 ~client:0 ~txns:(bench_txns ()) ~secret in
  let entries =
    List.init 4 (fun x ->
        {
          Msg.ce_instance = x;
          ce_round = 12;
          ce_batch = batch;
          ce_cert_replicas = List.init 11 (fun r -> r);
        })
  in
  let msg = Msg.Contract { round = 12; entries } in
  let ns, words, blocks =
    measure ~iters:200_000 (fun () -> ignore (Msg.size msg))
  in
  {
    m_name = "msg-size-contract";
    m_ns = ns;
    m_words = words;
    m_blocks = blocks;
  }

(* 64 committed rounds of z = 6 acceptances of 100-txn batches, PBFT
   certs of 11 replicas, built once: the journal rows below share the
   batches (and so their payloads) across every writer, as the
   replicas of a cluster do. *)
let journal_rounds =
  lazy
    (let secret, _ = Rcc_crypto.Signature.keygen (Rcc_common.Rng.create 3) in
     Array.init 64 (fun round ->
         Array.init 6 (fun instance ->
             {
               Rcc_replica.Acceptance.instance;
               round;
               batch =
                 Batch.create ~id:((round * 6) + instance) ~client:instance
                   ~txns:(bench_txns ()) ~secret;
               cert = List.init 11 Fun.id;
               speculative = false;
               history = "";
             })))

let journal_primaries = List.init 6 Fun.id

(* Journal [journal_rounds] through a fresh writer over [disk]; the
   caller runs the engine until the group-commit flushes complete. *)
let journal_all ~engine ~self disk =
  let j =
    Rcc_journal.Journal.attach ~engine ~costs:Rcc_sim.Costs.default ~disk
      ~self ()
  in
  Array.iteri
    (fun round accs ->
      Rcc_journal.Journal.log_round j ~round ~primaries:journal_primaries accs)
    (Lazy.force journal_rounds)

(* One op = one committed round of [journal_rounds] through
   [Journal.log_round], flushes included; each block of 64 rounds runs on
   a fresh engine and disk, and the row is the per-replica cost. CI gates
   its words/op against bench/journal.words. *)
let bench_journal () =
  let rounds = Array.length (Lazy.force journal_rounds) in
  let ns, words, blocks =
    measure ~iters:40 (fun () ->
        let engine = Engine.create () in
        journal_all ~engine ~self:0 (Rcc_journal.Sim_disk.create ~seed:1);
        Engine.run engine ~until:(Engine.now engine + Engine.ms 10))
  in
  let per = float_of_int rounds in
  {
    m_name = "journal-log-round";
    m_ns = ns /. per;
    m_words = words /. per;
    m_blocks = blocks /. per;
  }

(* One op = 16 disks, one per replica of an n = 16 cluster, each
   journaling [journal_rounds]. Like the kv-store row, [m_words] is a
   footprint: [Obj.reachable_words] of the 16 disks, less the batches
   they journal. A disk that copies each batch's encoded txns into its
   records holds them 16 times over; one that keeps them by reference
   holds only its framing. CI gates it against bench/disk.words. *)
let bench_disk_footprint () =
  let batches =
    Array.map
      (Array.map (fun (a : Rcc_replica.Acceptance.t) -> a.batch))
      (Lazy.force journal_rounds)
  in
  let build () =
    let engine = Engine.create () in
    let disks =
      Array.init 16 (fun self ->
          let disk = Rcc_journal.Sim_disk.create ~seed:self in
          journal_all ~engine ~self disk;
          disk)
    in
    Engine.run engine ~until:(Engine.now engine + Engine.ms 10);
    disks
  in
  let ns, _, blocks = measure ~iters:3 (fun () -> ignore (build ())) in
  let disks = build () in
  let words =
    Obj.reachable_words (Obj.repr (disks, batches))
    - Obj.reachable_words (Obj.repr batches)
    - 3 (* the pair *)
  in
  {
    m_name = "disk-footprint";
    m_ns = ns;
    m_words = float_of_int words;
    m_blocks = blocks;
  }

(* One op = [Conflict.partition] of one parallel-lowconflict scheduler
   window: 8 rounds of z = 6 100-txn batches, YCSB theta 0.3 over 2M
   records (the shape of the e2e replica.conflict.partition micro). A
   warm-up call sizes the reused key index and caches the key sets, so
   the row counts the steady-state per-window cost. CI gates its
   words/op against bench/conflict.words. *)
let bench_conflict () =
  let secret, _ = Rcc_crypto.Signature.keygen (Rcc_common.Rng.create 3) in
  let y =
    Rcc_workload.Ycsb.create ~records:2_000_000 ~write_ratio:0.9 ~theta:0.3
      ~seed:6 ()
  in
  let items =
    Array.init 48 (fun i ->
        let round = i / 6 and rank = i mod 6 in
        {
          Rcc_replica.Conflict.round;
          rank;
          acc =
            {
              Rcc_replica.Acceptance.instance = rank;
              round;
              batch =
                Batch.create ~id:i ~client:i
                  ~txns:(Rcc_workload.Ycsb.batch y ~size:100) ~secret;
              cert = [];
              speculative = false;
              history = "";
            };
        })
  in
  ignore (Rcc_replica.Conflict.partition items);
  let ns, words, blocks =
    measure ~iters:200 (fun () -> ignore (Rcc_replica.Conflict.partition items))
  in
  {
    m_name = "conflict-partition";
    m_ns = ns;
    m_words = words;
    m_blocks = blocks;
  }

(* One op = [Journal.write_snapshot] of a checkpoint at round 256 with
   50 000 materialized records and 120 reply-cache entries (the shape of
   the e2e storage.snapshot.encode micro), its disk-lane write included.
   The slot blob itself is one major-heap block, so the row counts the
   per-write bookkeeping: it grows with per-field allocations in the
   encoder or the checksum. CI gates its words/op against
   bench/snapshot.words. *)
let bench_snapshot () =
  let primaries = List.init 6 Fun.id in
  let ledger = Rcc_storage.Ledger.create ~primaries in
  for round = 0 to 255 do
    let proofs =
      List.map
        (fun x ->
          {
            Rcc_storage.Block.instance = x;
            batch_digest =
              Rcc_crypto.Sha256.digest (string_of_int ((round * 6) + x));
            certificate_digest = Rcc_crypto.Sha256.digest (string_of_int x);
          })
        primaries
    in
    Rcc_storage.Ledger.append_exn ledger
      {
        Rcc_storage.Block.round;
        prev_hash = Rcc_storage.Ledger.head_hash ledger;
        proofs;
        primaries;
        clients = primaries;
      }
  done;
  let boundary =
    Rcc_storage.Snapshot.boundary ~seq:256
      ~head:(Rcc_storage.Ledger.head_hash ledger)
      ~kv:
        (Some
           (Rcc_storage.Snapshot.kv_section
              (Array.init 50_000 (fun k -> (k, k * 7, 1)))))
      ~replied:
        (List.init 120 (fun c ->
             (c, Rcc_crypto.Sha256.digest (string_of_int c), 250, "r")))
  in
  let blocks = Rcc_storage.Ledger.prefix ledger ~upto:256 in
  let engine = Engine.create () in
  let j =
    Rcc_journal.Journal.attach ~engine ~costs:Rcc_sim.Costs.default
      ~disk:(Rcc_journal.Sim_disk.create ~seed:1) ~self:0 ()
  in
  let ns, words, blocks =
    measure ~iters:20 (fun () ->
        Rcc_journal.Journal.write_snapshot j boundary ~blocks;
        Engine.run engine ~until:(Engine.now engine + Engine.ms 100))
  in
  { m_name = "snapshot-write"; m_ns = ns; m_words = words; m_blocks = blocks }

(* One op = [Kv_store.init_records ~count:500_000] into a fresh store
   (the default YCSB table). Unlike the other rows, [m_words] is the
   store's footprint, [Obj.reachable_words] after the build: it is
   exact, and it grows if records go back to being boxed. CI gates it
   against bench/kv.words. *)
let bench_kv_store () =
  let build () =
    let s = Rcc_storage.Kv_store.create () in
    Rcc_storage.Kv_store.init_records s ~count:500_000;
    s
  in
  let ns, _, blocks = measure ~iters:5 (fun () -> ignore (build ())) in
  let words = float_of_int (Obj.reachable_words (Obj.repr (build ()))) in
  { m_name = "kv-store"; m_ns = ns; m_words = words; m_blocks = blocks }

(* One op = one replica's round history and txn table after 512 rounds
   of n = 16, z = 6 (PBFT certs of 2f + 1 = 11 replicas, every batch
   executed), built into a [Round_history] at
   [Exec.history_capacity]. Like the kv-store row, [m_words] is a
   footprint: [Obj.reachable_words] of both stores, less the batches,
   which every replica of a cluster shares. CI gates it against bench/history.words. *)
let bench_round_history () =
  let z = 6 and rounds = 512 in
  let cert = [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9; 10 ] in
  let batches =
    Array.init (rounds * z) (fun i ->
        Batch.of_parts ~id:i ~client:(i mod 1_000) ~payload:""
          ~digest:(Rcc_crypto.Sha256.digest (string_of_int i))
          ~signature:"")
  in
  let build () =
    let history =
      Rcc_replica.Round_history.create ~z
        ~capacity:Rcc_replica.Exec.history_capacity
    in
    let table = Rcc_storage.Txn_table.create ~z in
    for round = 0 to rounds - 1 do
      let accs =
        Array.init z (fun instance ->
            let batch = batches.((round * z) + instance) in
            Rcc_storage.Txn_table.record table
              {
                Rcc_storage.Txn_table.round;
                instance;
                client = batch.Batch.client;
                batch_digest = batch.Batch.digest;
                response_digest =
                  Rcc_crypto.Sha256.digest (string_of_int ((round * z) + instance));
                txn_count = 100;
              };
            {
              Rcc_replica.Acceptance.instance;
              round;
              batch;
              (* each replica builds its own cert list *)
              cert = List.map Fun.id cert;
              speculative = false;
              history = "";
            })
      in
      Rcc_replica.Round_history.store history ~round ~floor:max_int accs
    done;
    (history, table)
  in
  let ns, _, blocks = measure ~iters:5 (fun () -> ignore (build ())) in
  let stores = build () in
  let words =
    Obj.reachable_words (Obj.repr (stores, batches))
    - Obj.reachable_words (Obj.repr batches)
    - 3 (* the pair *)
  in
  {
    m_name = "round-history";
    m_ns = ns;
    m_words = float_of_int words;
    m_blocks = blocks;
  }

(* One op = 64 batches of 100 txns made by [Batch.create]. Like the
   kv-store row, [m_words] is a footprint: [Obj.reachable_words] of the
   64 batches, per batch. Every executed batch stays reachable for the
   whole run (the coordinator's round history keeps it for contract
   recovery), so this is what a batch costs the heap; it grows if a
   batch keeps its transactions in a second form beside the payload its
   digest covers. CI gates it against bench/batch.words. *)
let bench_batch_footprint () =
  let secret, _ = Rcc_crypto.Signature.keygen (Rcc_common.Rng.create 3) in
  let count = 64 in
  let build () =
    Array.init count (fun b ->
        Batch.create ~id:b ~client:b
          ~txns:
            (Array.init 100 (fun i ->
                 Rcc_workload.Txn.{ key = (b * 100) + i; op = Write (i * 31) }))
          ~secret)
  in
  let ns, _, blocks = measure ~iters:20 (fun () -> ignore (build ())) in
  let words =
    Obj.reachable_words (Obj.repr (build ())) - (count + 1) (* the array *)
  in
  let per = float_of_int count in
  {
    m_name = "batch-footprint";
    m_ns = ns /. per;
    m_words = float_of_int words /. per;
    m_blocks = blocks /. per;
  }

(* --- heap breakdown ----------------------------------------------------- *)

(* [--heap]: one cluster built and run with the multiz-journal workload's
   rated configuration (bench/e2e/spec.ml at its first rated seed,
   [sub_seed 42 0] = 672), then its reachable heap split by component,
   summed over replicas. Components share blocks (a snapshot slot and the
   boundary it was written from share the KV section), so each is charged
   what it reaches beyond the components listed before it; "the rest" is
   what the cluster reaches beyond all of them. *)
let heap_breakdown () =
  let cfg =
    Config.make ~protocol:Config.MultiZ ~n:16 ~batch_size:100 ~clients:10_000
      ~duration:(Engine.of_seconds 0.55) ~warmup:(Engine.of_seconds 0.15)
      ~records:500_000 ~write_ratio:0.9 ~theta:0.9 ~exec_mode:Config.Exec_serial
      ~exec_threads:4 ~exec_window:8 ~arrival_rate:300_000.0
      ~arrival_process:Config.Poisson ~max_in_flight:10_000 ~journal:true
      ~seed:672 ()
  in
  let cfg = { cfg with Config.checkpoint_interval = 48 } in
  let c = Rcc_runtime.Cluster.build cfg in
  ignore (Rcc_runtime.Cluster.run c);
  let module C = Rcc_runtime.Cluster in
  let disk_part part r = part (Rcc_journal.Sim_disk.stored (C.disk c r)) in
  let per f = Obj.repr (Array.init cfg.Config.n f) in
  let words root = Obj.reachable_words (Obj.repr root) in
  let mb w = float_of_int (w * (Sys.word_size / 8)) *. 1e-6 in
  let line name w = Printf.printf "%-16s %8.1f MB\n" name (mb w) in
  let roots =
    List.fold_left
      (fun prior (name, root) ->
        let roots = root :: prior in
        line name (words roots - words prior);
        roots)
      []
      [
        ("ledgers", per (C.ledger c));
        ("KV stores", per (C.store c));
        ("txn tables", per (C.txn_table c));
        ("journal areas", per (disk_part fst));
        ("snapshot slots", per (disk_part snd));
        ("boundaries", per (C.boundaries c));
      ]
  in
  let total = words (c, roots) in
  line "the rest" (total - words roots);
  line "cluster" total

(* --- JSON output -------------------------------------------------------- *)

let json_of_run ~label smoke micros =
  let b = Buffer.create 1024 in
  Printf.bprintf b "{\n  \"label\": %S,\n" label;
  Printf.bprintf b "  \"smoke\": {\n";
  Printf.bprintf b "    \"sim_events\": %d,\n" smoke.s_events;
  Printf.bprintf b "    \"wall_seconds\": %.4f,\n" smoke.s_wall;
  Printf.bprintf b "    \"events_per_sec\": %.0f,\n"
    (float_of_int smoke.s_events /. smoke.s_wall);
  Printf.bprintf b "    \"sim_ns_per_wall_ms\": %.0f,\n"
    (float_of_int smoke.s_sim_ns /. (smoke.s_wall *. 1e3));
  Printf.bprintf b "    \"words_per_event\": %.2f,\n"
    (smoke.s_minor_words /. float_of_int smoke.s_events);
  Printf.bprintf b "    \"sha256_blocks_per_event\": %.4f,\n"
    (float_of_int smoke.s_blocks /. float_of_int smoke.s_events);
  Printf.bprintf b "    \"throughput_txn_s\": %.0f,\n" smoke.s_throughput;
  Printf.bprintf b "    \"report_digest\": %S\n" smoke.s_digest;
  Printf.bprintf b "  },\n  \"micro\": {\n";
  List.iteri
    (fun i { m_name; m_ns; m_words; m_blocks } ->
      Printf.bprintf b
        "    %S: { \"ns_per_op\": %.1f, \"words_per_op\": %.2f, \
         \"sha256_blocks_per_op\": %.2f }%s\n"
        m_name m_ns m_words m_blocks
        (if i = List.length micros - 1 then "" else ","))
    micros;
  Printf.bprintf b "  }\n}\n";
  Buffer.contents b

(* --- main ---------------------------------------------------------------- *)

let () =
  Gc.set { (Gc.get ()) with Gc.minor_heap_size = 16 * 1024 * 1024 };
  let smoke_only = ref false in
  let digest_only = ref false in
  let heap = ref false in
  let label = ref "" in
  let out = ref "" in
  (* 120 is the historical smoke population; --clients 240 is the second
     determinism gate (the default closed-loop sweep population). *)
  let clients = ref 120 in
  let rec parse = function
    | [] -> ()
    | "--smoke" :: rest ->
        smoke_only := true;
        parse rest
    | "--digest-only" :: rest ->
        digest_only := true;
        parse rest
    | "--heap" :: rest ->
        heap := true;
        parse rest
    | "--label" :: l :: rest ->
        label := l;
        parse rest
    | "--out" :: path :: rest ->
        out := path;
        parse rest
    | "--clients" :: c :: rest ->
        clients := int_of_string c;
        parse rest
    | arg :: _ ->
        Printf.eprintf
          "unknown argument %S\n\
           usage: perf.exe [--smoke] [--digest-only] [--heap] [--clients N] \
           [--label STR] [--out FILE]\n"
          arg;
        exit 2
  in
  parse (List.tl (Array.to_list Sys.argv));
  let duration =
    Engine.of_seconds (if !smoke_only || !digest_only then 0.5 else 2.0)
  in
  if !heap then heap_breakdown ()
  else if !digest_only then begin
    (* CI determinism gate: print only the fixed-seed report digest. *)
    let smoke = run_smoke ~duration ~clients:!clients in
    print_string smoke.s_digest;
    print_newline ()
  end
  else begin
    let label =
      if !label <> "" then !label
      else if !smoke_only then "smoke"
      else "full"
    in
    Printf.eprintf "[simperf] smoke cluster (%.1fs simulated)...\n%!"
      (Engine.to_seconds duration);
    let smoke = run_smoke ~duration ~clients:!clients in
    Printf.eprintf
      "[simperf]   %d events in %.2fs wall = %.0f events/s, %.2f words/event, \
       %.4f SHA-256 blocks/event\n%!"
      smoke.s_events smoke.s_wall
      (float_of_int smoke.s_events /. smoke.s_wall)
      (smoke.s_minor_words /. float_of_int smoke.s_events)
      (float_of_int smoke.s_blocks /. float_of_int smoke.s_events);
    Printf.eprintf "[simperf]   report digest %s\n%!" smoke.s_digest;
    Printf.eprintf "[simperf] microbenches...\n%!";
    let micros =
      [
        bench_heap ();
        bench_net ~rules:false;
        bench_net ~rules:true;
        bench_engine ~dead:0;
        bench_engine ~dead:2_500;
        bench_codec ();
        bench_msg_size ();
        bench_journal ();
        bench_disk_footprint ();
        bench_conflict ();
        bench_snapshot ();
        bench_kv_store ();
        bench_round_history ();
        bench_batch_footprint ();
      ]
    in
    List.iter
      (fun { m_name; m_ns; m_words; m_blocks } ->
        Printf.eprintf
          "[simperf]   %-24s %10.1f ns/op %8.2f words/op %8.2f blocks/op\n%!"
          m_name m_ns m_words m_blocks)
      micros;
    let json = json_of_run ~label smoke micros in
    if !out = "" then print_string json
    else begin
      let oc = open_out_bin !out in
      output_string oc json;
      close_out oc;
      Printf.eprintf "[simperf] wrote %S -> %s\n%!" label !out
    end
  end
