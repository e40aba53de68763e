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
  (* n=4 materializes state everywhere: stores at an equal executed
     position must have equal digests. A run can stop inside a round,
     whose members execute one by one, so the position is the ledger
     length plus the members executed of the round in flight. Replicas
     are compared where the run stopped, and again once a drain without
     client load has let every replica catch up. *)
  let position r =
    ( Ledger.length (Cluster.ledger cluster r),
      Rcc_replica.Exec.executed_members (Cluster.exec cluster r) )
  in
  let digest r = Rcc_storage.Kv_store.state_digest (Cluster.store cluster r) in
  let compared = ref 0 in
  let compare_states phase =
    for a = 0 to 3 do
      for b = a + 1 to 3 do
        if position a = position b then begin
          incr compared;
          check Alcotest.string
            (Printf.sprintf "%s: state digest %d = %d" phase b a)
            (digest a) (digest b)
        end
      done
    done
  in
  compare_states "at the stop";
  Cluster.stop_clients cluster;
  let engine = Cluster.engine cluster in
  Engine.run engine ~until:(Engine.now engine + Engine.ms 100);
  compare_states "after the drain";
  check Alcotest.bool "some pair of replicas compared" true (!compared > 0)

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

(* A traced 1.2 s run of 4 MultiP replicas under 5 000 txn/s of
   open-loop load. [setup] may add faults to the built cluster before it
   runs. *)
let traced_run ?(timeout = Engine.ms 100) ?(setup = ignore) () =
  let cfg =
    Config.make ~protocol:Config.MultiP ~n:4 ~batch_size:10 ~clients:4_000
      ~records:5_000 ~duration:(Engine.of_seconds 1.2)
      ~warmup:(Engine.of_seconds 0.8) ~replica_timeout:timeout
      ~arrival_rate:5_000. ~arrival_process:Config.Poisson
      ~max_in_flight:4_000 ~seed:1 ()
  in
  let tracer = Rcc_trace.Recorder.create ~capacity:4_000_000 () in
  let c = Cluster.build ~tracer cfg in
  setup c;
  let report = Cluster.run c in
  check Alcotest.int "trace ring kept every event" 0
    (Rcc_trace.Recorder.dropped tracer);
  (c, report, Rcc_trace.Recorder.to_list tracer)

(* Instance 1's primary (replica 1) dies at 0.3 s. *)
let kill_primary_1 c =
  Engine.schedule_at (Cluster.engine c) (Engine.of_seconds 0.3) (fun () ->
      Rcc_sim.Net.set_dead (Cluster.net c) (Cluster.primary_of_instance c 1)
        true)

(* Every blame a replica made itself: (at, replica, instance, round,
   blamed). *)
let own_blames events =
  let module E = Rcc_trace.Event in
  List.filter_map
    (fun (e : E.t) ->
      match e.E.payload with
      | E.Blame { round; blamed; accuser } when accuser = e.E.replica ->
          Some (e.E.at, e.E.replica, e.E.instance, round, blamed)
      | _ -> None)
    events

(* Instance 1's primary crashes mid-run under open-loop load. Its
   successor's takeover ends on its peers' answers, long before the next
   liveness-monitor tick could queue a null fill, so the takeover must
   fill the instance itself, up to the horizon the other instance reached
   while it was stalled. Without that fill the instance stays that many
   rounds behind for the rest of the run, and every round waits on it. *)
let test_takeover_closes_round_gap () =
  let c, report, events = traced_run ~setup:kill_primary_1 () in
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
     takeover's own work, since the monitor's null fill runs on its
     12.5 ms tick and the grace period is 12.5 ms. *)
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
  let _, healthy, _ = traced_run () in
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


(* A replica the network marks dead does no work: its liveness monitor
   neither ticks nor escalates, so it accuses no one (its coordinator
   would sign blames that the network then drops). Revived, it resumes:
   its frontier is far behind, so it escalates at once. *)
let test_dead_replica_silent () =
  let by_victim events =
    List.filter (fun (_, replica, _, _, _) -> replica = 1) (own_blames events)
  in
  let c, _, events = traced_run ~setup:kill_primary_1 () in
  check Alcotest.bool "instance 1 has a new primary" true
    (Cluster.primary_of_instance c 1 <> 1);
  check Alcotest.int "the dead replica accused no one" 0
    (List.length (by_victim events));
  let revive = Engine.of_seconds 0.9 in
  let _, _, events =
    traced_run
      ~setup:(fun c ->
        kill_primary_1 c;
        Engine.schedule_at (Cluster.engine c) revive (fun () ->
            Rcc_sim.Net.set_dead (Cluster.net c) 1 false))
      ()
  in
  match by_victim events with
  | (at, _, _, _, _) :: _ ->
      check Alcotest.bool "revived, it escalates within one tick" true
        (at >= revive && at <= revive + Engine.ms 25 / 2)
  | [] -> Alcotest.fail "the revived replica never escalated"

(* The monitor escalates at the stall's exact deadline. From 0.3 s
   replica 3 receives nothing, so its frontier stops for good at its last
   move S (the round it then waits on was already in flight, so S may
   precede the fault), while the other three keep executing. Its monitor
   blames at S + timeout + 1 ns, then once per timeout (each deadline is
   the last escalation + timeout + 1 ns) until the run ends. The
   watchdogs fire on the timeout / 2 grid from time 0, which no monitor
   blame here meets, so the grid tells the two apart. *)
let test_monitor_blames_at_exact_deadline () =
  let timeout = Engine.ms 100 in
  let c, _, events =
    traced_run
      ~setup:(fun c ->
        ignore
          (Rcc_sim.Net.add_drop_rule (Cluster.net c) (fun ~src:_ ~dst _ ->
               dst = 3
               && Engine.now (Cluster.engine c) >= Engine.of_seconds 0.3)))
      ()
  in
  let stalled_at = Rcc_replica.Exec.last_move (Cluster.exec c 3) in
  check Alcotest.bool "replica 3 stalled at the fault" true
    (abs (stalled_at - Engine.of_seconds 0.3) < Engine.ms 10);
  let own = own_blames events in
  let by_monitor =
    List.filter (fun (at, _, _, _, _) -> at mod (timeout / 2) <> 0) own
  in
  let rec deadlines at =
    if at > (Cluster.config c).Config.duration then []
    else at :: deadlines (at + timeout + 1)
  in
  check
    Alcotest.(list int)
    "replica 3: one blame instant per timeout, from S + timeout + 1 ns"
    (deadlines (stalled_at + timeout + 1))
    (List.sort_uniq compare
       (List.filter_map
          (fun (at, replica, _, _, _) -> if replica = 3 then Some at else None)
          by_monitor));
  check Alcotest.int "no monitor blame where rounds advance" 0
    (List.length
       (List.filter (fun (_, replica, _, _, _) -> replica <> 3) by_monitor))

(* One accusation, one [blame] event. An instance's watchdog and the
   liveness monitor both accuse through the coordinator, which records
   the blame it counts. From 0.3 s replica 3 loses instance 1's COMMITs,
   and until 0.45 s the contract replies its monitor asks for: its
   monitor blames the round its execution stalls on, and as that first
   exchange goes unanswered, the stall outlives the next watchdog tick
   and its watchdog blames the prepared round it cannot commit. (With
   the replies, the exchange ends each stall before a watchdog tick
   comes.) The monitor escalates at the last frontier move + timeout +
   1 ns, or at its previous escalation + timeout + 1 ns while the stall
   lasts, so a blame at one of those instants is the monitor's; the
   run's drop rule, which sees every send, samples each replica's last
   frontier move. The watchdogs tick at 101 ms + k * 50.5 ms, which no
   such instant meets. Every accusation is also broadcast, once, as a
   VIEW-CHANGE to the n - 1 peers. *)
let test_one_blame_event_per_accusation () =
  let timeout = Engine.ms 101 in
  let moves = Hashtbl.create 256 in
  let c, _, events =
    traced_run ~timeout
      ~setup:(fun c ->
        ignore
          (Rcc_sim.Net.add_drop_rule (Cluster.net c) (fun ~src:_ ~dst msg ->
               for r = 0 to (Cluster.config c).Config.n - 1 do
                 Hashtbl.replace moves
                   (r, Rcc_replica.Exec.last_move (Cluster.exec c r))
                   ()
               done;
               let now = Engine.now (Cluster.engine c) in
               dst = 3
               && now > Engine.of_seconds 0.3
               &&
               match msg with
               | Rcc_messages.Msg.Commit { instance = 1; _ } -> true
               | Rcc_messages.Msg.Contract_reply _ ->
                   now < Engine.of_seconds 0.45
               | _ -> false)))
      ()
  in
  let module E = Rcc_trace.Event in
  let own = own_blames events in
  (* In time order, so an escalation's predecessor is classified first. *)
  let escalations = Hashtbl.create 16 in
  let by_monitor =
    List.filter
      (fun (at, replica, _, _, _) ->
        let due = at - timeout - 1 in
        let mine =
          Hashtbl.mem moves (replica, due)
          || Hashtbl.mem escalations (replica, due)
        in
        if mine then Hashtbl.replace escalations (replica, at) ();
        mine)
      own
  in
  check Alcotest.bool "the liveness monitor accused" true (by_monitor <> []);
  check Alcotest.bool "a watchdog accused" true
    (List.length by_monitor < List.length own);
  check Alcotest.int "one blame event per accusation"
    (List.length (List.sort_uniq compare own))
    (List.length own);
  let view_changes =
    List.length
      (List.filter
         (fun (e : E.t) ->
           match e.E.payload with
           | E.Net_send { kind = "view_change"; _ } -> true
           | _ -> false)
         events)
  in
  check Alcotest.int "each accusation broadcast once"
    (List.length own * ((Cluster.config c).Config.n - 1))
    view_changes

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
      Alcotest.test_case "one blame event per accusation" `Slow
        test_one_blame_event_per_accusation;
      Alcotest.test_case "dead replica stays silent" `Slow
        test_dead_replica_silent;
      Alcotest.test_case "monitor blames at the exact deadline" `Slow
        test_monitor_blames_at_exact_deadline;
      Alcotest.test_case "report reads a live replica" `Slow
        test_report_reads_live_replica;
      Alcotest.test_case "collusion recovery" `Slow test_collusion_recovery_end_to_end;
      Alcotest.test_case "client DoS instance change" `Slow test_client_dos_instance_change;
      Alcotest.test_case "permutation safety" `Slow test_permutation_execution_safe;
      Alcotest.test_case "safety across seeds" `Slow test_safety_across_seeds;
      Alcotest.test_case "report consistency" `Slow test_report_fields_consistent;
    ] )
