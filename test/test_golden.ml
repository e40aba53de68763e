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
     "10edb32171dd7d6f5773fbf3666c9c14798efa17f4cb913984f3893a09d53798");
    ("zyzzyva fault-free",
     "cffe50c03ad8c40e71740588c389d81ff690f7be9068a15deb22c5362337ab64");
    ("zyzzyva dark",
     "57d2db15564bfb8cb59cac35a8a143cc2cda66a1c1235e68c7927fe2dd1d6960");
    ("zyzzyva crash:1",
     "c105526fe1b3f148bf80e7ec3e59dc7116af31be84078381c21c5bc408393ca9");
    ("hotstuff fault-free",
     "50ef646dcf458acd7eaf08c6d8536e0b2e7570f70f581414fc09c391479ba4b2");
    ("hotstuff dark",
     "50ef646dcf458acd7eaf08c6d8536e0b2e7570f70f581414fc09c391479ba4b2");
    ("hotstuff crash:1",
     "025e2463c1d9ed066bb8fff34c21de7a40b69c7d22cc20b610396dbb08d0ef04");
    ("multip fault-free",
     "6f27e824406c1179f72eafc4a15f47d846b315d8b9e3cfed660f2cc1c4b3e74a");
    ("multip dark",
     "32becfd2cc651d559c900294f5fce410c18d1b20f0d030865fcf6ff5dc9a0fde");
    ("multip crash:1",
     "136139f816bc1f6ea6dc1c77d43861b642cd1ed31583c02942af2383deff4365");
    ("multiz fault-free",
     "47d7863962ec2bf9699ff861736712e31bf661fb39d8c969a928a03235dad491");
    ("multiz dark",
     "26ceb65dde0494d81bc8565f2b1fffa910892465a83a76884fb86a07efade622");
    ("multiz crash:1",
     "acd029e68ea62a62f918135b7a838034d8b8dcf7f9246183951ea020156c2cb3");
    ("cft fault-free",
     "e50bc8c99734f141b366ac63e6d683799089884a42039c300316ae5ee699a816");
    ("cft dark",
     "c2677809802c5cfeccf2a5242334b85124fba0c7dc09d6158efe20e96c26e884");
    ("cft crash:1",
     "74c73a60b833a808ec1a0f0e2893ccac00240ad1677eaaf2181a9c8b06c3275b");
    ("multic fault-free",
     "ea96cffd7c24608639258c53a14a4707413747a594291b28e88bc8c7752de3f2");
    ("multic dark",
     "f13f555ad26b118425732d4ad5478c85b4ebf4459dc3e41f735f10ec273eec96");
    ("multic crash:1",
     "c7918ffa00b0a96d1f5a05e9bb38d23ef4381b57922b81592a577500a0146cf5");
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
     ("8d233352cf89de9abbf9ae4c6f984c22a6fdbaec10297f3cad7bfffc7db19d6f",
      276309));
    ("multiz",
     ("205c4acf1db7f1f0f48672a207c0062703eec29de19fa4415ef558cae07db3e8",
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
