(* Chaos subsystem tests: nemesis scripts driven through the cluster
   invariant checker — partition/heal, crash/restart, and the Example 3.3
   collusion attack under optimistic recovery. *)

module Engine = Rcc_sim.Engine
module Config = Rcc_runtime.Config
module Report = Rcc_runtime.Report
module Script = Rcc_chaos.Script
module Runner = Rcc_chaos.Runner
module Invariant = Rcc_chaos.Invariant
module Fuzzer = Rcc_chaos.Fuzzer
module Event = Rcc_trace.Event

let check = Alcotest.check
let ms = Engine.ms

let cfg ?(n = 4) protocol ~duration =
  Config.make ~protocol ~n ~batch_size:10 ~clients:24 ~records:5_000
    ~duration:(Engine.of_seconds duration)
    ~warmup:(Engine.of_seconds (duration /. 4.))
    ~replica_timeout:(Engine.ms 250) ~client_timeout:(Engine.ms 400)
    ~collusion_wait:(Engine.ms 150) ()

let assert_passes name outcome =
  if not (Runner.passed outcome) then begin
    Format.printf "%a@." Runner.pp_outcome outcome;
    Alcotest.failf "%s: chaos run failed" name
  end

let test_partition_heal () =
  let script =
    Script.
      [
        { at = ms 300; action = Partition [ [ 3 ] ] };
        { at = ms 600; action = Heal };
      ]
  in
  assert_passes "partition/heal"
    (Runner.run (cfg Config.MultiP ~duration:1.2) script)

let test_crash_restart () =
  (* Crash a primary mid-round; its instance must be replaced, and the
     restarted node must catch back up without forking any ledger. *)
  let script =
    Script.
      [
        { at = ms 400; action = Crash 0 };
        { at = ms 700; action = Restart 0 };
      ]
  in
  assert_passes "crash/restart"
    (Runner.run (cfg Config.MultiP ~duration:1.2) script)

let test_collusion_dark_victim () =
  (* Example 3.3: both primaries keep replica 3 in the dark. The blame
     evidence spreads across instances, so no single primary ever draws
     f+1 accusers and no replacement may happen; optimistic recovery
     (contract exchange) must still let the victim catch up once the
     attack stops. *)
  let script =
    Script.
      [
        { at = ms 300; action = Byz_on (0, Dark [ 3 ]) };
        { at = ms 300; action = Byz_on (1, Dark [ 3 ]) };
        { at = ms 800; action = Byz_off 0 };
        { at = ms 800; action = Byz_off 1 };
      ]
  in
  let outcome = Runner.run (cfg Config.MultiP ~duration:1.4) script in
  assert_passes "collusion" outcome;
  check Alcotest.int "no replacement on spread blames" 0
    outcome.Runner.report.Report.replacements

let test_forged_view_sync_harmless () =
  (* A byzantine replica broadcasts View_sync messages claiming views far
     ahead, naming itself primary, with certificate votes signed by its
     own key but attributed to other replicas. Certificate verification
     must reject every one: no honest replica's views or primaries may
     move, so the run ends with zero replacements and the coordinator-
     agreement invariant intact. *)
  let script =
    Script.
      [
        { at = ms 300; action = Byz_on (2, Forge_views) };
        { at = ms 800; action = Byz_off 2 };
      ]
  in
  let outcome = Runner.run (cfg Config.MultiP ~duration:1.2) script in
  assert_passes "forged view-sync" outcome;
  check Alcotest.int "no honest replica moved views" 0
    outcome.Runner.report.Report.replacements

let test_canary_reports_failure () =
  (* The intentionally-broken invariant must fail and be attributed, to
     prove the checker actually runs and reports. *)
  let outcome = Runner.run ~canary:true (cfg Config.MultiP ~duration:0.4) [] in
  check Alcotest.bool "canary run fails" false (Runner.passed outcome);
  check Alcotest.bool "violation names the canary" true
    (List.exists
       (fun (_, v) -> v.Invariant.invariant = "canary-no-commits")
       outcome.Runner.violations)

let test_speculative_fork_heals () =
  (* Scenario 7000022, open in ROADMAP since PR 1: a partition isolates a
     MultiZ instance primary mid-speculation, the survivors replace it
     and order different batches at the same slots. With speculative
     rollback the fork must heal — slot-agreement and ledger-prefix
     invariants hold through the view change and the final quiesced
     check. *)
  assert_passes "speculative fork (scenario 7000022)"
    (Fuzzer.run_one ~protocol:Config.MultiZ ~n:4
       ~duration:(Engine.of_seconds 2.0) ~scenario_seed:7000022 ())

let test_retransmission_dedup () =
  (* Scenario 7000021, open in ROADMAP since PR 8: under partition +
     crash + forged views a MultiP (PBFT) primary re-ordered a client's
     retransmitted batch at a fresh slot after the replied-cache floor
     passed the first execution, tripping no-duplicate-execution. The
     per-primary [ordered] table now re-announces the original
     Pre_prepare instead of burning a new slot. *)
  assert_passes "retransmission dedup (scenario 7000021)"
    (Fuzzer.run_one ~protocol:Config.MultiP ~n:4
       ~duration:(Engine.of_seconds 2.0) ~scenario_seed:7000021 ())

let test_restart_primary_resigns () =
  (* Scenario 9000030, found by the journal fuzzer: a restart-from-disk
     at 506 ms revives a MultiZ instance primary whose volatile next_seq
     regressed to the durable frontier, and re-assigning already
     broadcast slots forked the speculative history (slot-agreement
     violation at round 4352). Builder.restore now resigns every
     instance the successor leads until the view path re-establishes
     sequencing, so the scenario must pass with a primary replacement
     instead of an equivocation. *)
  assert_passes "restart-from-disk primary resigns (scenario 9000030)"
    (Fuzzer.run_one ~journal:true ~protocol:Config.MultiZ ~n:4
       ~duration:(Engine.of_seconds 2.0) ~scenario_seed:9000030 ())

(* The partition sweep: each cell partitions one replica (victim 0 and
   1 lead instances 0 and 1 in view 0, victim 3 leads none) at [start]
   and heals it at 900 ms, on the fuzzer's cluster for 1.5 s, with the
   seed driving both the workload and the nemesis. A partitioned MultiZ
   primary keeps executing its own rounds speculatively while the
   others replace it and order different batches there; every view
   install must re-check those rounds from the lowest unproven one, or
   the fork outlives the heal. *)
let sweep_heal = ms 900

let sweep_run protocol ~seed ~victim ~start =
  Runner.run ~nemesis_seed:seed
    (Fuzzer.config_for protocol ~n:4 ~duration:(Engine.of_seconds 1.5) ~seed)
    Script.
      [
        { at = ms start; action = Partition [ [ victim ] ] };
        { at = sweep_heal; action = Heal };
      ]

(* Four MultiZ cells still report a fork, and only while the partition is
   up: the partitioned primary already held the other instance's round,
   so it executed its own round alone and speculatively, the others
   null-filled it, and the rollback after the heal repairs it. Zyzzyva
   promises agreement on completed requests, not on speculative state;
   until a client-side oracle rules on these cells they stay pinned as
   they are: violations before the heal, none at the quiesced check. *)
let transient_forks =
  [ (1, 0, 330); (1, 0, 400); (7000022, 1, 330); (7000022, 1, 400) ]

let test_sweep_cell protocol ~seed ~victim ~start () =
  let name = Printf.sprintf "seed %d victim %d start %d ms" seed victim start in
  let outcome = sweep_run protocol ~seed ~victim ~start in
  if
    protocol = Config.MultiZ && List.mem (seed, victim, start) transient_forks
  then begin
    check Alcotest.bool (name ^ ": forks while partitioned") false
      (Runner.passed outcome);
    List.iter
      (fun (at, (v : Invariant.violation)) ->
        if at > sweep_heal then begin
          Format.printf "%a@." Runner.pp_outcome outcome;
          Alcotest.failf "%s: %s after the heal (at %d ms)" name
            v.Invariant.invariant (at / ms 1)
        end)
      outcome.Runner.violations
  end
  else assert_passes name outcome

(* A few cells where the partitioned replica leads an instance, run in
   the quick suite; the rest of the 36-cell grid is [`Slow]. *)
let quick_cells =
  [ (Config.MultiZ, 7000022, 0, 300); (Config.MultiZ, 7000022, 1, 300);
    (Config.MultiZ, 1, 1, 330) ]

let sweep_cases =
  List.concat_map
    (fun (protocol, label) ->
      List.concat_map
        (fun seed ->
          List.concat_map
            (fun victim ->
              List.map
                (fun start ->
                  let speed =
                    if List.mem (protocol, seed, victim, start) quick_cells then
                      `Quick
                    else `Slow
                  in
                  Alcotest.test_case
                    (Printf.sprintf "sweep %s s%d v%d %dms" label seed victim
                       start)
                    speed
                    (test_sweep_cell protocol ~seed ~victim ~start))
                [ 300; 330; 400 ])
            [ 0; 1; 3 ])
        [ 1; 7000022 ])
    [ (Config.MultiZ, "multiz"); (Config.MultiP, "multip") ]

let transfer_script duration =
  let pct p = duration * p / 100 in
  Script.
    [
      { at = pct 10; action = Partition [ [ 3 ] ] };
      { at = pct 70; action = Heal };
    ]

let test_multiz_transfer_install () =
  (* The multiz state-transfer scenario PR 6 had to skip: replica 3 sits
     out 60% of the run. Degraded clients keep the healthy majority at
     full commit-certificate throughput, so the healed replica faces a
     gap far past the contract window and only a snapshot install can
     converge it — the trace must show one covering >= 1000 rounds. *)
  let duration = Engine.of_seconds 2.0 in
  let cfg =
    Config.make ~protocol:Config.MultiZ ~n:4 ~batch_size:10 ~clients:40
      ~records:5_000 ~duration ~warmup:(duration / 4)
      ~replica_timeout:(ms 250) ~client_timeout:(ms 400)
      ~collusion_wait:(ms 150) ()
  in
  let outcome = Runner.run ~trace_ring:131_072 cfg (transfer_script duration) in
  assert_passes "multiz transfer" outcome;
  let installed =
    List.exists
      (fun (e : Event.t) ->
        match e.Event.payload with
        | Event.St_installed { rounds; _ } ->
            e.Event.replica = 3 && rounds >= 1_000
        | _ -> false)
      outcome.Runner.events
  in
  check Alcotest.bool "healed replica installed a >=1000-round snapshot" true
    installed

let test_fuzzer_deterministic () =
  let report () =
    Format.asprintf "%a" Fuzzer.pp_summary
      (Fuzzer.fuzz ~protocols:[ Config.MultiP ]
         ~duration:(Engine.of_seconds 0.5) ~seed:11 ~runs:1 ())
  in
  let a = report () in
  check Alcotest.bool "report non-empty" true (String.length a > 0);
  check Alcotest.string "same seed, same report" a (report ())

let test_script_roundtrip () =
  let script =
    Script.
      [
        { at = ms 10; action = Crash 2 };
        { at = ms 5; action = Byz_on (1, Dark [ 0; 3 ]) };
        { at = ms 20; action = Restart 2 };
      ]
  in
  check
    Alcotest.(list int)
    "faulty replicas" [ 1; 2 ]
    (Script.faulty_replicas script);
  check Alcotest.int "last event" (ms 20) (Script.last_event_time script);
  (match Script.sorted script with
  | { at; _ } :: _ -> check Alcotest.int "sorted head" (ms 5) at
  | [] -> Alcotest.fail "sorted dropped events");
  check Alcotest.bool "printable" true
    (String.length (Script.to_string script) > 0)

let suite =
  ( "chaos",
    [
      Alcotest.test_case "script basics" `Quick test_script_roundtrip;
      Alcotest.test_case "partition/heal" `Slow test_partition_heal;
      Alcotest.test_case "crash/restart mid-round" `Slow test_crash_restart;
      Alcotest.test_case "example 3.3 collusion" `Slow test_collusion_dark_victim;
      Alcotest.test_case "forged view-sync harmless" `Slow
        test_forged_view_sync_harmless;
      Alcotest.test_case "canary failure report" `Slow test_canary_reports_failure;
      Alcotest.test_case "speculative fork heals (7000022)" `Slow
        test_speculative_fork_heals;
      Alcotest.test_case "retransmission dedup (7000021)" `Slow
        test_retransmission_dedup;
      Alcotest.test_case "multiz transfer installs a snapshot" `Slow
        test_multiz_transfer_install;
      Alcotest.test_case "restart-from-disk primary resigns (9000030)" `Slow
        test_restart_primary_resigns;
      Alcotest.test_case "fuzzer determinism" `Slow test_fuzzer_deterministic;
    ]
    @ sweep_cases )
