(* Golden reports: every protocol at n=4 for a short run, fault-free and
   under two faults that exercise failure detection — a dark primary (a
   victim of instance 0 never sees its proposals and must blame it) and a
   crashed replica (instance 1's primary under RCC, a silent backup for
   the standalone protocols; HotStuff ignores the dark spec, so its crash
   run carries the detection path). Each run is pinned by the SHA-256 of
   its printed report with the wall-clock field zeroed: the simulator is
   a pure function of its config, so any change to event order in any
   protocol moves a digest. *)

module Config = Rcc_runtime.Config
module Cluster = Rcc_runtime.Cluster
module Report = Rcc_runtime.Report
module Engine = Rcc_sim.Engine

let cfg protocol fault =
  Config.make ~protocol ~n:4 ~batch_size:10 ~clients:40 ~records:5_000
    ~duration:(Engine.of_seconds 0.3)
    ~warmup:(Engine.of_seconds 0.075)
    ~replica_timeout:(Engine.ms 100) ~client_timeout:(Engine.ms 150) ~fault ()

let report_digest protocol fault =
  let r = Cluster.run_config (cfg protocol fault) in
  Rcc_crypto.Sha256.hex_digest
    (Format.asprintf "%a" Report.pp { r with Report.wall_seconds = 0. })

let faults =
  [
    ("fault-free", Config.No_fault);
    ("dark", Config.Dark { instance = 0; victims = [ 3 ] });
    ("crash:1", Config.Crash [ 1 ]);
  ]

(* A change that moves one of these must say why in its commit. *)
let expected =
  [
    ("pbft fault-free",
     "702eac09505055a6e4d3133bf1ebfc27738ce19ea29de6e0034933be133e54b6");
    ("pbft dark",
     "5ba11d7bd23d64ba249a0849c09a3db6bad0d6937697c8437a02530f87234dab");
    ("pbft crash:1",
     "1f44d2298e96c1660c5bf2211de39ddc39064a935631bfe9164beaa23e3541af");
    ("zyzzyva fault-free",
     "cffe50c03ad8c40e71740588c389d81ff690f7be9068a15deb22c5362337ab64");
    ("zyzzyva dark",
     "6c545019aecf72d6d01e6c2c4807b3d77925a5dc3d1cd84d7e87ef0bc7b3cdb1");
    ("zyzzyva crash:1",
     "21d82c69052d9aee0dffbae095ea198132607902f9bf51e12e382fd6c991f02d");
    ("hotstuff fault-free",
     "50ef646dcf458acd7eaf08c6d8536e0b2e7570f70f581414fc09c391479ba4b2");
    ("hotstuff dark",
     "50ef646dcf458acd7eaf08c6d8536e0b2e7570f70f581414fc09c391479ba4b2");
    ("hotstuff crash:1",
     "0cbea560a03a197d4cfa9214d786d2e566260940323700e546d1d5b97d51a0e1");
    ("multip fault-free",
     "6e2b32011ba73741b874a0b9def72b745fb15d9fc9a79154d08f324457ddb117");
    ("multip dark",
     "49ac81f5959dbb355213f727a5a03c6b2b77055f8c12e52e86092021a9f73362");
    ("multip crash:1",
     "dad212b959b50deda5b8243ce390bba2f04678d8b1f7b32b5f0f0d158c6be7b3");
    ("multiz fault-free",
     "461f7fc992f076ad899d491d893a2cfa3f95930a829df4b17f485521fe86d328");
    ("multiz dark",
     "9d3d9dbbe9749fb9c070114aaaa0b017ecefba80341c6f680769408ee1ed9d11");
    ("multiz crash:1",
     "373f70bea9022a2552024799a685d07ad1289dc52c0f893945aa34e2a5c3180c");
    ("cft fault-free",
     "e50bc8c99734f141b366ac63e6d683799089884a42039c300316ae5ee699a816");
    ("cft dark",
     "c2677809802c5cfeccf2a5242334b85124fba0c7dc09d6158efe20e96c26e884");
    ("cft crash:1",
     "21149eca5a6487f04ddad4274b4cc67615ea1a102a106b15bde225404a4499c6");
    ("multic fault-free",
     "3f6aec2390016d311b4a83f14bcb4b5b10d56cd2a57601e34fc91929dc24c0b2");
    ("multic dark",
     "a2f04fcad8f62848d3e3159af1bcf92304fc598043dc1cb3271bb44e7f63f8c0");
    ("multic crash:1",
     "a7f30557ada9a79104f8d7d74e03066dd463dbc9b88d35c7e262a865ddf6cd1f");
  ]

let test_golden_reports () =
  let got =
    List.concat_map
      (fun protocol ->
        List.map
          (fun (label, fault) ->
            ( Printf.sprintf "%s %s" (Config.protocol_name protocol) label,
              report_digest protocol fault ))
          faults)
      Config.[ Pbft; Zyzzyva; Hotstuff; MultiP; MultiZ; Cft; MultiC ]
  in
  Alcotest.(check (list (pair string string)))
    "report digests" expected got

(* Parallel-mode cells: the conflict scheduler at high contention (theta
   0.99 over 200 records), so dependency groups span several batches.
   Each cell pins the report digest and the sum of the traced
   [exec_conflict.keys], which moves if the partitioner glues a
   different set of batches or counts their relations differently. *)
let parallel_cfg protocol =
  Config.make ~protocol ~n:4 ~batch_size:10 ~clients:40 ~records:200
    ~theta:0.99 ~exec_mode:Config.Exec_parallel
    ~duration:(Engine.of_seconds 0.3)
    ~warmup:(Engine.of_seconds 0.075)
    ~replica_timeout:(Engine.ms 100) ~client_timeout:(Engine.ms 150) ()

let parallel_cell protocol =
  let tracer = Rcc_trace.Recorder.create ~capacity:2_000_000 () in
  let r = Cluster.run_config ~tracer (parallel_cfg protocol) in
  Alcotest.(check int) "trace ring kept every event" 0
    (Rcc_trace.Recorder.dropped tracer);
  let keys = ref 0 in
  Rcc_trace.Recorder.iter tracer (fun e ->
      match e.Rcc_trace.Event.payload with
      | Rcc_trace.Event.Exec_conflict { keys = k; _ } -> keys := !keys + k
      | _ -> ());
  ( Rcc_crypto.Sha256.hex_digest
      (Format.asprintf "%a" Report.pp { r with Report.wall_seconds = 0. }),
    !keys )

let parallel_expected =
  [
    ("multip",
     ("52bbca8151cf76b65fec227ec98bb6da01e9255b45f89329372351c29f223350",
      276309));
    ("multiz",
     ("f43af1a8c33ed1d79463801733e1e27391fc340517464eb379baa4030d67c862",
      323506));
  ]

let test_parallel_reports () =
  let got =
    List.map
      (fun protocol ->
        (Config.protocol_name protocol, parallel_cell protocol))
      Config.[ MultiP; MultiZ ]
  in
  Alcotest.(check (list (pair string (pair string int))))
    "parallel report digests and conflict keys" parallel_expected got

let suite =
  ( "golden",
    [
      Alcotest.test_case "every protocol's report" `Slow test_golden_reports;
      Alcotest.test_case "parallel exec reports" `Slow test_parallel_reports;
    ] )
