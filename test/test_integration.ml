(* End-to-end cluster tests: every protocol commits transactions; safety
   (identical ledgers and states across replicas); behaviour under crash,
   dark-primary, collusion and client-DoS faults. *)

module Config = Rcc_runtime.Config
module Cluster = Rcc_runtime.Cluster
module Report = Rcc_runtime.Report
module Ledger = Rcc_storage.Ledger
module Block = Rcc_storage.Block
module Engine = Rcc_sim.Engine

let check = Alcotest.check

let small_cfg ?z ?(fault = Config.No_fault) ?(duration = 0.5) ?replica_timeout
    ?client_timeout ?collusion_wait ?instance_change_after protocol n =
  Config.make ~protocol ~n ?z ~batch_size:10 ~clients:40 ~records:5_000
    ~duration:(Engine.of_seconds duration)
    ~warmup:(Engine.of_seconds (duration /. 4.0))
    ?replica_timeout ?client_timeout ?collusion_wait ?instance_change_after
    ~fault ()

(* Common prefix of two ledgers must consist of identical blocks. A
   replica kept fully in the dark may legitimately have an empty ledger. *)
let check_ledger_prefix_equal cluster n =
  let reference = Cluster.ledger cluster 0 in
  for r = 1 to n - 1 do
    let other = Cluster.ledger cluster r in
    let common = min (Ledger.length reference) (Ledger.length other) in
    for round = 0 to common - 1 do
      let a = Option.get (Ledger.get reference round) in
      let b = Option.get (Ledger.get other round) in
      if not (String.equal (Block.hash a) (Block.hash b)) then
        Alcotest.failf "ledger divergence at round %d between replicas 0 and %d"
          round r
    done
  done

let run_protocol protocol () =
  let cfg = small_cfg protocol 4 in
  let cluster = Cluster.build cfg in
  let report = Cluster.run cluster in
  check Alcotest.bool "throughput > 0" true (report.Report.throughput > 0.0);
  check Alcotest.bool "ledger valid" true report.Report.ledger_valid;
  check Alcotest.bool "rounds executed" true (report.Report.ledger_rounds > 0);
  for r = 1 to 3 do
    check Alcotest.bool
      (Printf.sprintf "replica %d made progress" r)
      true
      (Ledger.length (Cluster.ledger cluster r) > 0)
  done;
  check_ledger_prefix_equal cluster 4;
  (* n=4 materializes state everywhere: stores with equal executed rounds
     must have equal digests. *)
  let rounds r = Ledger.length (Cluster.ledger cluster r) in
  let digest r = Rcc_storage.Kv_store.state_digest (Cluster.store cluster r) in
  for r = 1 to 3 do
    if rounds r = rounds 0 then
      check Alcotest.bool
        (Printf.sprintf "state digest %d = 0" r)
        true
        (String.equal (digest r) (digest 0))
  done

let test_deterministic_runs () =
  let r1 = Cluster.run_config (small_cfg Config.MultiP 4) in
  let r2 = Cluster.run_config (small_cfg Config.MultiP 4) in
  check Alcotest.int "same committed txns" r1.Report.committed_txns
    r2.Report.committed_txns;
  check Alcotest.int "same messages" r1.Report.messages r2.Report.messages

let test_seed_changes_schedule () =
  let base = small_cfg Config.MultiP 4 in
  let r1 = Cluster.run_config base in
  let r2 = Cluster.run_config { base with Config.seed = 99 } in
  check Alcotest.bool "different seeds, different message counts" true
    (r1.Report.messages <> r2.Report.messages)

let test_pbft_crash_tolerance () =
  let cfg = small_cfg ~fault:(Config.Crash [ 3 ]) Config.Pbft 4 in
  let report = Cluster.run_config cfg in
  check Alcotest.bool "commits despite crash" true (report.Report.throughput > 0.0);
  check Alcotest.bool "ledger valid" true report.Report.ledger_valid

let test_multip_crash_tolerance () =
  let cfg = small_cfg ~fault:(Config.Crash [ 3 ]) Config.MultiP 4 in
  let report = Cluster.run_config cfg in
  check Alcotest.bool "multip commits despite crash" true
    (report.Report.throughput > 0.0)

let test_zyzzyva_collapses_under_crash () =
  let cfg = small_cfg ~fault:(Config.Crash [ 3 ]) Config.Zyzzyva 4 in
  let report = Cluster.run_config cfg in
  (* Clients wait for all n until the (unscaled) 15 s timeout: nothing
     completes inside the run. *)
  check (Alcotest.float 0.01) "zero throughput" 0.0 report.Report.throughput

let test_zyzzyva_commit_cert_recovery () =
  (* With a scaled-down client timeout, Zyzzyva clients fall back to the
     commit-certificate phase and make progress despite the crash. *)
  let cfg =
    small_cfg ~duration:1.0
      ~client_timeout:(Engine.ms 100)
      ~fault:(Config.Crash [ 3 ]) Config.Zyzzyva 4
  in
  let report = Cluster.run_config cfg in
  check Alcotest.bool "commit phase recovers clients" true
    (report.Report.throughput > 0.0)

let test_multip_dark_victim_stalls_but_service_lives () =
  let cfg =
    small_cfg ~duration:1.0
      ~replica_timeout:(Engine.ms 150)
      ~fault:(Config.Dark { instance = 1; victims = [ 3 ] })
      Config.MultiP 4
  in
  let cluster = Cluster.build cfg in
  let report = Cluster.run cluster in
  check Alcotest.bool "service keeps committing" true (report.Report.throughput > 0.0);
  (* The victim cannot execute past the darkened instance's rounds. *)
  check Alcotest.bool "victim behind" true
    (Ledger.length (Cluster.ledger cluster 3)
    < Ledger.length (Cluster.ledger cluster 0));
  check_ledger_prefix_equal cluster 4

let test_multip_crashed_primary_replaced () =
  (* A crashed PRIMARY under RCC: the liveness monitor detects the stalled
     instance, coordinators collect f+1 blames, and unified election
     installs a fresh primary; clients of the dead primary resend and the
     service recovers to full throughput. *)
  let cfg =
    Config.make ~protocol:Config.MultiP ~n:7 ~batch_size:10 ~clients:42
      ~records:5_000
      ~duration:(Engine.of_seconds 1.5)
      ~warmup:(Engine.of_seconds 0.3)
      ~replica_timeout:(Engine.ms 250)
      ~client_timeout:(Engine.ms 400)
      ~fault:(Config.Crash [ 1 ])
      ()
  in
  let cluster = Cluster.build cfg in
  let report = Cluster.run cluster in
  check Alcotest.bool "primary replaced" true (report.Report.replacements >= 1);
  check Alcotest.bool "service recovered" true (report.Report.throughput > 0.0);
  check Alcotest.bool "replacement is consistent" true
    (Cluster.primary_of_instance cluster 1 <> 1);
  check Alcotest.bool "ledger valid" true report.Report.ledger_valid;
  check_ledger_prefix_equal cluster 7

let test_report_reads_live_replica () =
  (* Replica 0 dead from the start: the report's per-replica figures
     (ledger, utilizations, slot stats, replacements) must come from a
     live replica, not from replica 0's empty ledger and idle threads. *)
  let cfg =
    Config.make ~protocol:Config.MultiP ~n:7 ~batch_size:10 ~clients:42
      ~records:5_000
      ~duration:(Engine.of_seconds 1.5)
      ~warmup:(Engine.of_seconds 0.3)
      ~replica_timeout:(Engine.ms 250)
      ~client_timeout:(Engine.ms 400)
      ~fault:(Config.Crash [ 0 ])
      ()
  in
  let report = Cluster.run_config cfg in
  check Alcotest.bool "service recovered" true (report.Report.committed_txns > 0);
  check Alcotest.bool "ledger rounds from a live replica" true
    (report.Report.ledger_rounds > 0);
  check Alcotest.bool "ledger valid" true report.Report.ledger_valid;
  check Alcotest.bool "execute thread busy" true
    (report.Report.exec_utilization > 0.0);
  check Alcotest.bool "replacement counted" true
    (report.Report.replacements >= 1)

let test_collusion_recovery_end_to_end () =
  (* n=7, f=2, z=3: the fig. 12 attack at small scale. *)
  let cfg =
    Config.make ~protocol:Config.MultiP ~n:7 ~batch_size:10 ~clients:42
      ~records:5_000
      ~duration:(Engine.of_seconds 2.0)
      ~warmup:(Engine.of_seconds 0.25)
      ~replica_timeout:(Engine.ms 300)
      ~collusion_wait:(Engine.ms 150)
      ~fault:(Config.Collusion { victim = 4; at_round = 40 })
      ()
  in
  let cluster = Cluster.build cfg in
  let report = Cluster.run cluster in
  check Alcotest.bool "throughput survives the attack" true
    (report.Report.throughput > 0.0);
  check Alcotest.bool "collusion detected" true (report.Report.collusions_detected > 0);
  check Alcotest.bool "contracts exchanged" true (report.Report.contract_bytes > 0);
  check Alcotest.bool "no primary replaced on the false alarm" true
    (report.Report.replacements = 0);
  (* The victim recovered: its ledger eventually catches up close to the
     leader's. *)
  let victim_rounds = Ledger.length (Cluster.ledger cluster 4) in
  let leader_rounds = Ledger.length (Cluster.ledger cluster 1) in
  check Alcotest.bool
    (Printf.sprintf "victim caught up (%d vs %d)" victim_rounds leader_rounds)
    true
    (victim_rounds > leader_rounds / 2);
  check_ledger_prefix_equal cluster 7

let test_client_dos_instance_change () =
  (* Instance 0's primary drops client requests; starved clients defect to
     instance 1 after a timeout and complete there (§3.6). *)
  let cfg =
    small_cfg ~duration:1.5
      ~client_timeout:(Engine.ms 100)
      ~instance_change_after:1
      ~fault:(Config.Client_dos { instance = 0 })
      Config.MultiP 4
  in
  let cluster = Cluster.build cfg in
  let report = Cluster.run cluster in
  ignore report;
  let pool = Cluster.client_pool cluster in
  check Alcotest.bool "instance changes happened" true
    (Rcc_replica.Client_pool.instance_changes pool > 0);
  (* Client 0's home instance is 0; it must have moved. *)
  check Alcotest.bool "client 0 defected" true
    (Rcc_replica.Client_pool.client_instance pool 0 <> 0)

let test_permutation_execution_safe () =
  (* Digest-permuted execution must stay consistent across replicas. *)
  let base = small_cfg Config.MultiP 4 in
  let with_perm = { base with Config.use_permutation = true } in
  let without = { base with Config.use_permutation = false } in
  let c1 = Cluster.build with_perm in
  let r1 = Cluster.run c1 in
  check_ledger_prefix_equal c1 4;
  let c2 = Cluster.build without in
  let r2 = Cluster.run c2 in
  check_ledger_prefix_equal c2 4;
  check Alcotest.bool "both commit" true
    (r1.Report.throughput > 0.0 && r2.Report.throughput > 0.0)

let test_safety_across_seeds () =
  (* Different schedules (seeds) must all preserve ledger agreement; runs
     MultiZ, whose speculative path is the most schedule-sensitive. *)
  List.iter
    (fun seed ->
      let cfg = { (small_cfg Config.MultiZ 4) with Config.seed } in
      let cluster = Cluster.build cfg in
      let report = Cluster.run cluster in
      check Alcotest.bool
        (Printf.sprintf "seed %d commits" seed)
        true
        (report.Report.throughput > 0.0);
      check_ledger_prefix_equal cluster 4)
    [ 7; 1234; 999983 ]

let test_report_fields_consistent () =
  let report = Cluster.run_config (small_cfg Config.Pbft 4) in
  check Alcotest.bool "latency positive" true (report.Report.avg_latency > 0.0);
  check Alcotest.bool "p99 >= p50" true
    (report.Report.p99_latency >= report.Report.p50_latency);
  check Alcotest.bool "timeline non-empty" true
    (Array.length report.Report.timeline > 0);
  check Alcotest.bool "messages flowed" true (report.Report.messages > 0);
  check Alcotest.string "protocol name" "pbft" report.Report.protocol

(* Instance 1's primary crashes mid-run under open-loop load. Its
   successor's takeover ends on its peers' answers, long before the next
   liveness-monitor tick could queue a null fill, so the takeover must
   fill the instance itself, up to the horizon the other instance reached
   while it was stalled. Without that fill the instance stays that many
   rounds behind for the rest of the run, and every round waits on it. *)
let test_takeover_closes_round_gap () =
  let run ~crash =
    let cfg =
      Config.make ~protocol:Config.MultiP ~n:4 ~batch_size:10 ~clients:4_000
        ~records:5_000 ~duration:(Engine.of_seconds 1.2)
        ~warmup:(Engine.of_seconds 0.8) ~replica_timeout:(Engine.ms 100)
        ~arrival_rate:5_000. ~arrival_process:Config.Poisson
        ~max_in_flight:4_000 ~seed:1 ()
    in
    let tracer = Rcc_trace.Recorder.create ~capacity:4_000_000 () in
    let c = Cluster.build ~tracer cfg in
    if crash then begin
      let victim = Cluster.primary_of_instance c 1 in
      Engine.schedule_at (Cluster.engine c) (Engine.of_seconds 0.3) (fun () ->
          Rcc_sim.Net.set_dead (Cluster.net c) victim true)
    end;
    let report = Cluster.run c in
    check Alcotest.int "trace ring kept every event" 0
      (Rcc_trace.Recorder.dropped tracer);
    (c, report, Rcc_trace.Recorder.to_list tracer)
  in
  let c, report, events = run ~crash:true in
  let heir = Cluster.primary_of_instance c 1 in
  check Alcotest.bool "instance 1 has a new primary" true (heir <> 1);
  let module E = Rcc_trace.Event in
  let at_heir f =
    List.filter_map
      (fun (e : E.t) -> if e.E.replica = heir then f e else None)
      events
  in
  let takeover =
    List.hd
      (at_heir (fun e ->
           match e.E.payload with
           | E.Primary_change { primary; _ } when e.E.instance = 1 && primary = heir
             ->
               Some e.E.at
           | _ -> None))
  in
  (* The horizon: the highest round instance 0 had accepted at [heir]
     when the takeover began (execution was stalled on instance 1 below
     it, so every such round was pending). *)
  let horizon =
    List.fold_left max (-1)
      (at_heir (fun e ->
           match e.E.payload with
           | E.Slot_accept { round; _ } when e.E.instance = 0 && e.E.at < takeover
             ->
               Some round
           | _ -> None))
  in
  (* Rounds [heir] opened in instance 1 within 5 ms of the takeover: the
     takeover's own work, since the monitor ticks every 12.5 ms and the
     grace period is 12.5 ms. *)
  let opened =
    at_heir (fun e ->
        match e.E.payload with
        | E.Slot_propose { round }
          when e.E.instance = 1 && e.E.at >= takeover
               && e.E.at < takeover + Engine.ms 5 ->
            Some round
        | _ -> None)
  in
  check Alcotest.bool "the takeover ended before the grace period" true
    (opened <> []);
  let filled = List.fold_left max (-1) opened in
  check Alcotest.bool
    (Printf.sprintf "instance 1 filled to the horizon (%d >= %d)" filled horizon)
    true (filled >= horizon);
  (* And it stays closed: both instances end the run level. *)
  let last instance =
    List.fold_left max (-1)
      (at_heir (fun e ->
           match e.E.payload with
           | E.Slot_propose { round } when e.E.instance = instance -> Some round
           | _ -> None))
  in
  check Alcotest.bool
    (Printf.sprintf "no gap at the end (instance 0 at %d, 1 at %d)" (last 0)
       (last 1))
    true
    (abs (last 0 - last 1) <= 4);
  (* Post-recovery latency is back to normal on every instance: a gap of
     g rounds shows as g inter-arrival times of waiting on the instance
     ahead. *)
  let _, healthy, _ = run ~crash:false in
  Array.iter
    (fun (i : Report.instance_stats) ->
      check Alcotest.bool
        (Printf.sprintf
           "instance %d: post-recovery p50 %.2f ms within 5x of fault-free \
            %.2f ms"
           i.Report.instance
           (i.Report.i_p50_latency *. 1e3)
           (healthy.Report.p50_latency *. 1e3))
        true
        (i.Report.i_p50_latency <= 5.0 *. healthy.Report.p50_latency))
    report.Report.per_instance

let suite =
  ( "integration",
    [
      Alcotest.test_case "pbft end-to-end" `Slow (run_protocol Config.Pbft);
      Alcotest.test_case "zyzzyva end-to-end" `Slow (run_protocol Config.Zyzzyva);
      Alcotest.test_case "hotstuff end-to-end" `Slow (run_protocol Config.Hotstuff);
      Alcotest.test_case "multip end-to-end" `Slow (run_protocol Config.MultiP);
      Alcotest.test_case "multiz end-to-end" `Slow (run_protocol Config.MultiZ);
      Alcotest.test_case "cft end-to-end" `Slow (run_protocol Config.Cft);
      Alcotest.test_case "multic end-to-end" `Slow (run_protocol Config.MultiC);
      Alcotest.test_case "deterministic runs" `Slow test_deterministic_runs;
      Alcotest.test_case "seed changes schedule" `Slow test_seed_changes_schedule;
      Alcotest.test_case "pbft crash tolerance" `Slow test_pbft_crash_tolerance;
      Alcotest.test_case "multip crash tolerance" `Slow test_multip_crash_tolerance;
      Alcotest.test_case "zyzzyva collapse" `Slow test_zyzzyva_collapses_under_crash;
      Alcotest.test_case "zyzzyva commit-cert recovery" `Slow
        test_zyzzyva_commit_cert_recovery;
      Alcotest.test_case "dark victim" `Slow test_multip_dark_victim_stalls_but_service_lives;
      Alcotest.test_case "crashed primary replaced" `Slow
        test_multip_crashed_primary_replaced;
      Alcotest.test_case "takeover closes round gap" `Slow
        test_takeover_closes_round_gap;
      Alcotest.test_case "report reads a live replica" `Slow
        test_report_reads_live_replica;
      Alcotest.test_case "collusion recovery" `Slow test_collusion_recovery_end_to_end;
      Alcotest.test_case "client DoS instance change" `Slow test_client_dos_instance_change;
      Alcotest.test_case "permutation safety" `Slow test_permutation_execution_safe;
      Alcotest.test_case "safety across seeds" `Slow test_safety_across_seeds;
      Alcotest.test_case "report consistency" `Slow test_report_fields_consistent;
    ] )
