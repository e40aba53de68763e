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
     "167511c8bb82274829d045790cc8e288b7ac33419afcfa04cf90e9b85eb87d98");
    ("pbft dark",
     "834cb3d9f10725680fbaf0cc0ab5316b9feddc9b98b130dbfbcd69ac99bdc30a");
    ("pbft crash:1",
     "d9de37e3c5d8f237a60514be30612bc30ed180e84da66d5f44c15be0bb766297");
    ("zyzzyva fault-free",
     "4bda2bc81aa7b2b88f1d3d7577c62e440eefd31dbd5bcacecca45a3329a1f857");
    ("zyzzyva dark",
     "ecf3a8a29a1b8f9064f19a6fa5b85f407d0604a8ee7b5a793bc437bb4c0c596c");
    ("zyzzyva crash:1",
     "c09343a2e4c188ac82379507309105ee77bb33884feeaa058cc766cb174f8cc4");
    ("hotstuff fault-free",
     "37b4f20ba413d9044d12dce71ae780147d94a26b3bd1f538a2bb090bf2ba0f87");
    ("hotstuff dark",
     "37b4f20ba413d9044d12dce71ae780147d94a26b3bd1f538a2bb090bf2ba0f87");
    ("hotstuff crash:1",
     "a743e8d2a3a58d1540ebeb213e19ab043e2956203788af8d8c0f00a0b5694686");
    ("multip fault-free",
     "2e9deeb9df86b4cd5488963e78327aa99000741d763252ac5c556b0b55c44489");
    ("multip dark",
     "57154be79a6672cd3ec10295eea75e557db386fd9156efae4374f439165d8966");
    ("multip crash:1",
     "af255f5f17a4fc5ef5dd1a099d37b0cd89e3f47daf1c4617787b15f5b6efe854");
    ("multiz fault-free",
     "dd7bd5ebe23d2a7e4967e50dcf217342cab21febae2d270f7e8a442e1a45a1c5");
    ("multiz dark",
     "ad16b22aaf6788b07dc9057b6a0efc53c37a50ae9ef99525371136d8a0ad6684");
    ("multiz crash:1",
     "2f403f28b6c95b619ac9b9077efa976835a52468334519e49fcac6f73fa88a4c");
    ("cft fault-free",
     "aef8d9e21a23837f504ad0ea5f0c05d93a2d58b006088bffcc3346f9dbb21649");
    ("cft dark",
     "8dcf681b3b279b7c2c3adb5680bb2a25be7195958d8e0a46e88d155c2b50ce2a");
    ("cft crash:1",
     "770e77c81b17c3ab8308e19d6e587557c7bc3346e3dd2299f2e3a530cbe67b22");
    ("multic fault-free",
     "1f6e3fbbf30e87354c76d1c3ff506bd0278a5dd092de792a58dc8a087b9174a1");
    ("multic dark",
     "01f808956c8efdbd6fb91f7601b1c1bd2c1680123c72d66fb0a4457bb8104c13");
    ("multic crash:1",
     "b7416edb570bb64eac4b2099251a6d587b24ff67b192762fb123adc35ae975a1");
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
     ("f2a24581fd26c6f786bca8c42aabdf0a29ed96aba5202afc0e78b51776468e26",
      276309));
    ("multiz",
     ("751a1ddca217c4f1ed25785c045546272577836c0ab09dfa393a7d53314ed4b2",
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
