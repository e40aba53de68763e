(* Runtime-layer tests: configuration derivation, report formatting,
   experiment profiles. *)

module Config = Rcc_runtime.Config
module Report = Rcc_runtime.Report
module Experiment = Rcc_runtime.Experiment
module Engine = Rcc_sim.Engine

let check = Alcotest.check

let test_config_derivation () =
  let cfg = Config.make ~protocol:Config.MultiP ~n:32 () in
  check Alcotest.int "f = (n-1)/3" 10 cfg.Config.f;
  check Alcotest.int "z = f+1" 11 cfg.Config.z;
  let pbft = Config.make ~protocol:Config.Pbft ~n:32 () in
  check Alcotest.int "standalone z = 1" 1 pbft.Config.z;
  let forced = Config.make ~protocol:Config.MultiP ~n:32 ~z:4 () in
  check Alcotest.int "explicit z wins" 4 forced.Config.z;
  Alcotest.check_raises "n too small" (Invalid_argument "Config.make: need n >= 4")
    (fun () -> ignore (Config.make ~protocol:Config.Pbft ~n:3 ()))

let test_client_instances () =
  let hs = Config.make ~protocol:Config.Hotstuff ~n:16 () in
  check Alcotest.int "hotstuff spreads over all n" 16 (Config.client_instances hs);
  let mp = Config.make ~protocol:Config.MultiP ~n:16 () in
  check Alcotest.int "multip spreads over z" 6 (Config.client_instances mp);
  check Alcotest.int "total clients" mp.Config.clients (Config.total_clients mp)

let test_quorum_mapping () =
  let q p = Config.quorum (Config.make ~protocol:p ~n:4 ()) in
  check Alcotest.bool "zyzzyva waits all n" true
    (q Config.Zyzzyva = Rcc_replica.Client_pool.All_n_speculative);
  check Alcotest.bool "multiz inherits" true
    (q Config.MultiZ = Rcc_replica.Client_pool.All_n_speculative);
  check Alcotest.bool "pbft f+1" true
    (q Config.Pbft = Rcc_replica.Client_pool.Majority_fplus1);
  check Alcotest.bool "multic f+1" true
    (q Config.MultiC = Rcc_replica.Client_pool.Majority_fplus1)

let test_contention_factor () =
  (* 10 + z threads on 16 cores: no pressure at z=1, pressure at z=11. *)
  let factor z =
    Config.contention_factor (Config.make ~protocol:Config.MultiP ~n:34 ~z ())
  in
  check (Alcotest.float 1e-9) "z=1 free" 1.0 (factor 1);
  check Alcotest.bool "z=11 pays" true (factor 11 > 1.0);
  check Alcotest.bool "monotone in z" true (factor 16 > factor 11)

let test_protocol_names () =
  List.iter
    (fun (p, name) -> check Alcotest.string "name" name (Config.protocol_name p))
    [
      (Config.Pbft, "pbft");
      (Config.Zyzzyva, "zyzzyva");
      (Config.Hotstuff, "hotstuff");
      (Config.MultiP, "multip");
      (Config.MultiZ, "multiz");
      (Config.Cft, "cft");
      (Config.MultiC, "multic");
    ];
  check Alcotest.int "paper protocols in the figures" 5
    (List.length Config.all_protocols)

let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  n = 0 || go 0

let test_report_formatting () =
  let report =
    {
      Report.protocol = "pbft";
      n = 4;
      batch_size = 100;
      throughput = 123456.0;
      avg_latency = 0.0123;
      p50_latency = 0.01;
      p99_latency = 0.02;
      committed_txns = 1000;
      timeline = [| (0.0, 1.0) |];
      exec_timeline = [||];
      view_changes = 1;
      collusions_detected = 0;
      contract_bytes = 0;
      replacements = 0;
      messages = 10;
      bytes_sent = 100;
      ledger_rounds = 10;
      ledger_valid = true;
      exec_utilization = 0.5;
      exec_pool_utilization = 0.0;
      worker_utilization = 0.25;
      sim_events = 99;
      wall_seconds = 0.5;
      snap_installs = 0;
      snap_rejects = 0;
      snap_rounds_skipped = 0;
      snap_bytes_in = 0;
      snap_bytes_out = 0;
      jrn_appends = 0;
      jrn_flushes = 0;
      jrn_bytes = 0;
      jrn_snapshots = 0;
      jrn_faults = 0;
      jrn_restarts = 0;
      jrn_replayed_rounds = 0;
      jrn_replayed_txns = 0;
      open_loop = None;
      per_instance = [||];
    }
  in
  let pp = Format.asprintf "%a" Report.pp report in
  check Alcotest.bool "pp includes throughput" true (contains pp "123456")

let test_experiment_profiles () =
  check Alcotest.bool "full longer than quick" true
    (Experiment.duration `Full > Experiment.duration `Quick);
  check Alcotest.bool "warmup shorter than duration" true
    (Experiment.warmup `Full < Experiment.duration `Full
    && Experiment.warmup `Quick < Experiment.duration `Quick)

let test_experiment_quick_run () =
  (* A tiny end-to-end sweep through the Experiment API itself. *)
  let results =
    Experiment.sweep_batch `Quick ~protocols:[ Config.MultiC ] ~n:4
      ~batch_sizes:[ 10 ]
  in
  match results with
  | [ (Config.MultiC, 10, report) ] ->
      check Alcotest.bool "committed" true (report.Report.throughput > 0.0)
  | _ -> Alcotest.fail "unexpected sweep shape"

let suite =
  ( "runtime",
    [
      Alcotest.test_case "config derivation" `Quick test_config_derivation;
      Alcotest.test_case "client instances" `Quick test_client_instances;
      Alcotest.test_case "quorum mapping" `Quick test_quorum_mapping;
      Alcotest.test_case "contention factor" `Quick test_contention_factor;
      Alcotest.test_case "protocol names" `Quick test_protocol_names;
      Alcotest.test_case "report formatting" `Quick test_report_formatting;
      Alcotest.test_case "experiment profiles" `Quick test_experiment_profiles;
      Alcotest.test_case "experiment quick run" `Slow test_experiment_quick_run;
    ] )
