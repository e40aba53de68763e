(* rcc-chaos: seeded chaos fuzzing and scripted fault scenarios.

     dune exec bin/rcc_chaos.exe -- --seed 7 --runs 10            # fuzz both
     dune exec bin/rcc_chaos.exe -- --smoke                       # bundled scenario
     dune exec bin/rcc_chaos.exe -- --protocol multip --scenario-seed 7000021
     dune exec bin/rcc_chaos.exe -- --restart                     # restart-from-disk
     dune exec bin/rcc_chaos.exe -- --journal --runs 10           # storage fuzzing
     dune exec bin/rcc_chaos.exe -- --canary --runs 1             # failure demo

   Output is deterministic: the same flags and seeds produce
   byte-identical reports. Exits 1 if any invariant was violated.
*)

open Cmdliner
module Config = Rcc_runtime.Config
module Engine = Rcc_sim.Engine
module Script = Rcc_chaos.Script
module Runner = Rcc_chaos.Runner
module Fuzzer = Rcc_chaos.Fuzzer

let protocols_of = function
  | `MultiP -> [ Config.MultiP ]
  | `MultiZ -> [ Config.MultiZ ]
  | `Both -> [ Config.MultiP; Config.MultiZ ]

(* Bundled smoke scenario: a partition, a dark attack, and a primary
   crash/restart, all healed with 30% of the run left to quiesce in.
   Event times scale with the configured duration. *)
let smoke_script duration =
  let pct p = duration * p / 100 in
  let ev at action = { Script.at; action } in
  [
    ev (pct 15) (Script.Partition [ [ 3 ] ]);
    ev (pct 30) Script.Heal;
    ev (pct 35) (Script.Byz_on (1, Script.Dark [ 2 ]));
    ev (pct 55) (Script.Byz_off 1);
    ev (pct 60) (Script.Crash 0);
    ev (pct 70) (Script.Restart 0);
  ]

(* Bundled state-transfer scenario: replica 3 is partitioned for 60% of
   the run — thousands of rounds at chaos throughput, far past the
   contract window — then healed. Catching up by replay is impossible;
   convergence therefore proves a snapshot install, and the trace is
   asserted to contain one. *)
let transfer_script duration =
  let pct p = duration * p / 100 in
  [
    { Script.at = pct 10; action = Script.Partition [ [ 3 ] ] };
    { Script.at = pct 70; action = Script.Heal };
  ]

(* Same gap, but every prospective donor serves corrupted snapshot
   payloads until 85% of the run. Verification must reject each corrupt
   blob (the trace must show it), and the install must still land once
   honest donors are back. *)
let corrupt_transfer_script duration =
  let pct p = duration * p / 100 in
  let donors = [ 0; 1; 2 ] in
  List.map
    (fun r ->
      { Script.at = pct 5; action = Script.Byz_on (r, Script.Corrupt_snapshot) })
    donors
  @ [
      { Script.at = pct 10; action = Script.Partition [ [ 3 ] ] };
      { Script.at = pct 70; action = Script.Heal };
    ]
  @ List.map (fun r -> { Script.at = pct 85; action = Script.Byz_off r }) donors

(* Bundled restart-from-disk scenario (journaling on): replica 3 loses
   power mid-run and comes back as a fresh incarnation that trusts
   nothing but its disk. With an honest disk the journal suffix replays
   to the durable frontier and the replica rejoins without the full
   state-transfer blob: the trace must show a deep replayed frontier,
   and any snapshot install may only be an incremental one covering the
   short outage window (state transfer races the 250 ms contract-
   recovery timers for the rounds missed while dead, and often wins),
   never the snapshot-sized catch-up an empty replica would need. *)
let restart_script duration =
  let pct p = duration * p / 100 in
  [
    { Script.at = pct 45; action = Script.Crash 3 };
    { Script.at = pct 45 + Engine.ms 5; action = Script.Restart_from_disk 3 };
  ]

(* Lying-disk variant: storage faults are armed long before the crash, so
   the journal holds torn / corrupt / lost records. Recovery must detect
   every bad record (truncate, never trust) and close the resulting gap
   through state transfer — the trace must show the detection or the
   fallback install. *)
let faulty_restart_script duration =
  let pct p = duration * p / 100 in
  [
    { Script.at = pct 5; action = Script.Storage_faults (3, 0.25) };
    { Script.at = pct 45; action = Script.Crash 3 };
    { Script.at = pct 55; action = Script.Restart_from_disk 3 };
    { Script.at = pct 60; action = Script.Storage_faults (3, 0.0) };
  ]

module Event = Rcc_trace.Event

let first_event events ~replica ~matches =
  List.find_opt
    (fun e -> e.Event.replica = replica && matches e.Event.payload)
    events

(* Hard assertions on the recorded trace, beyond the runner's generic
   invariants; failures print like invariant violations and flip the
   exit code. *)
let assert_transfer ~label ~expect_reject outcome =
  let events = outcome.Runner.events in
  let installed =
    first_event events ~replica:3 ~matches:(function
      | Event.St_installed _ -> true
      | _ -> false)
  in
  let rejected =
    first_event events ~replica:3 ~matches:(function
      | Event.St_rejected _ -> true
      | _ -> false)
  in
  let failures = ref [] in
  let fail msg = failures := msg :: !failures in
  (match installed with
  | None -> fail "no snapshot install on the healed replica"
  | Some { Event.payload = Event.St_installed { rounds; _ }; _ }
    when rounds < 1_000 ->
      fail (Printf.sprintf "install covered only %d rounds (want >= 1000)" rounds)
  | Some _ -> ());
  if expect_reject then begin
    match (rejected, installed) with
    | None, _ -> fail "no corrupt snapshot was rejected"
    | Some r, Some i when r.Event.at > i.Event.at ->
        fail "first rejection came after the install"
    | Some _, _ -> ()
  end;
  List.iter
    (fun msg -> Format.printf "FAIL transfer(%s): %s@." label msg)
    (List.rev !failures);
  !failures = []

(* Trace assertions for the restart-from-disk scenarios. *)
let assert_restart ~label ~faulty outcome =
  let events = outcome.Runner.events in
  let failures = ref [] in
  let fail msg = failures := msg :: !failures in
  let replay_complete =
    first_event events ~replica:3 ~matches:(function
      | Event.Journal_replay_complete _ -> true
      | _ -> false)
  in
  let has matches = first_event events ~replica:3 ~matches <> None in
  (match replay_complete with
  | None -> fail "no journal replay on the restarted replica"
  | Some { Event.payload = Event.Journal_replay_complete { frontier; _ }; _ }
    when (not faulty) && frontier < 1_024 ->
      (* Honest disk: snapshot + suffix must prove the bulk of the
         pre-crash prefix, thousands of rounds at chaos throughput. *)
      fail
        (Printf.sprintf "journal replay recovered only %d rounds (want >= 1024)"
           frontier)
  | Some { Event.payload = Event.Journal_replay_complete { frontier; _ }; _ }
    when faulty && frontier < 1 ->
      fail "journal replay recovered an empty frontier"
  | Some _ -> ());
  if faulty then begin
    (* The disk lied; every injected fault must be detected — truncation
       of the journal suffix — or repaired via a snapshot install. *)
    if outcome.Runner.report.Rcc_runtime.Report.jrn_faults = 0 then
      fail "no storage faults were injected";
    if
      not
        (has (function
           | Event.Journal_truncated _ | Event.St_installed _ -> true
           | _ -> false))
    then fail "faulty disk: neither truncation nor a fallback install"
  end
  else begin
    (* Honest disk: the replayed frontier carries the rejoin. Catch-up
       for the rounds missed while dead may still win the race against
       contract recovery as an incremental install, but every install
       must start at or above the replayed frontier — a blob re-covering
       disk-proven rounds would mean the journal under-delivered. *)
    let frontier =
      match replay_complete with
      | Some
          { Event.payload = Event.Journal_replay_complete { frontier; _ }; _ }
        ->
          frontier
      | _ -> 0
    in
    match
      first_event events ~replica:3 ~matches:(function
        | Event.St_installed { seq; rounds; _ } -> seq - rounds < frontier
        | _ -> false)
    with
    | Some { Event.payload = Event.St_installed { seq; rounds; _ }; _ } ->
        fail
          (Printf.sprintf
             "clean-disk install re-covered disk-proven rounds (base %d < \
              replayed frontier %d)"
             (seq - rounds) frontier)
    | _ -> ()
  end;
  List.iter
    (fun msg -> Format.printf "FAIL restart(%s): %s@." label msg)
    (List.rev !failures);
  !failures = []

let run protocol_sel n duration seed runs scenario_seed smoke transfer restart
    journal canary quick exec_mode exec_threads trace_path trace_ring =
  Gc.set { (Gc.get ()) with Gc.minor_heap_size = 16 * 1024 * 1024 };
  let protocols = protocols_of protocol_sel in
  let duration =
    Engine.of_seconds (if quick then Float.min duration 1.5 else duration)
  in
  let runs = if quick then min runs 2 else runs in
  let failed = ref false in
  let note outcome =
    if not (Runner.passed outcome) then failed := true;
    Format.printf "%a" Runner.pp_outcome outcome
  in
  let smoke_cfg ?(journal = journal) protocol =
    Config.make ~protocol ~n ~batch_size:10 ~clients:40 ~records:5_000
      ~duration ~warmup:(duration / 4)
      ~replica_timeout:(Engine.ms 250) ~client_timeout:(Engine.ms 400)
      ~collusion_wait:(Engine.ms 150) ~seed ~exec_mode ~exec_threads ~journal ()
  in
  (* A bundled scenario's two variants, per protocol: the clean script
     traces to [trace_path], the adverse one to it with [suffix] before
     any ".jsonl"; [assertion] checks each trace. Tracing is always on,
     since the verdicts read the events. *)
  let run_variants ~journal ~assertion ~clean:(clean_label, clean_script)
      ~adverse:(adverse_label, suffix, adverse_script) =
    let ring = Option.value trace_ring ~default:131_072 in
    let variant_path suffix p =
      if Filename.check_suffix p ".jsonl" then
        Filename.chop_suffix p ".jsonl" ^ suffix ^ ".jsonl"
      else p ^ suffix
    in
    List.iter
      (fun protocol ->
        List.iter
          (fun (label, adverse, suffix, script) ->
            let outcome =
              Runner.run ~canary ~nemesis_seed:seed
                ?trace_path:(Option.map (variant_path suffix) trace_path)
                ~trace_ring:ring
                (smoke_cfg ~journal protocol)
                (script duration)
            in
            note outcome;
            if not (assertion ~label ~adverse outcome) then failed := true)
          [
            (clean_label, false, "", clean_script);
            (adverse_label, true, suffix, adverse_script);
          ])
      protocols
  in
  (if smoke then
     List.iter
       (fun protocol ->
         note
           (Runner.run ~canary ~nemesis_seed:seed ?trace_path ?trace_ring
              (smoke_cfg protocol) (smoke_script duration)))
       protocols
   else if transfer then
     (* MultiZ runs this too since speculative rollback landed: with a
        replica partitioned away, clients fall back from the all-n
        speculative quorum to commit certificates, so the healthy
        majority keeps executing and the healed replica faces a
        snapshot-sized gap just like MultiP. *)
     run_variants ~journal
       ~assertion:(fun ~label ~adverse ->
         assert_transfer ~label ~expect_reject:adverse)
       ~clean:("heal", transfer_script)
       ~adverse:("corrupt-donor", ".corrupt", corrupt_transfer_script)
   else if restart then
     run_variants ~journal:true
       ~assertion:(fun ~label ~adverse ->
         assert_restart ~label ~faulty:adverse)
       ~clean:("clean-disk", restart_script)
       ~adverse:("faulty-disk", ".faulty", faulty_restart_script)
   else
     match scenario_seed with
     | Some scenario_seed ->
         List.iter
           (fun protocol ->
             note
               (Fuzzer.run_one ~canary ?trace_path ?trace_ring ~exec_mode
                  ~exec_threads ~journal ~protocol ~n ~duration ~scenario_seed
                  ()))
           protocols
     | None ->
         let summary =
           Fuzzer.fuzz ~exec_mode ~exec_threads ~protocols ~n ~duration ~canary
             ~journal ~seed ~runs ()
         in
         Format.printf "%a" Fuzzer.pp_summary summary;
         if summary.Fuzzer.failures <> [] then failed := true);
  if !failed then exit 1

let cmd =
  let protocol =
    Arg.(value
         & opt (enum [ ("multip", `MultiP); ("multiz", `MultiZ); ("both", `Both) ]) `Both
         & info [ "p"; "protocol" ] ~doc:"Protocol(s) to fuzz: multip, multiz or both.")
  in
  let n = Arg.(value & opt int 4 & info [ "n"; "replicas" ] ~doc:"Number of replicas.") in
  let duration =
    Arg.(value & opt float 2.0 & info [ "duration" ] ~doc:"Simulated seconds per scenario.")
  in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Master fuzzing seed.") in
  let runs = Arg.(value & opt int 5 & info [ "runs" ] ~doc:"Scenarios per protocol.") in
  let scenario_seed =
    Arg.(value & opt (some int) None
         & info [ "scenario-seed" ]
             ~doc:"Reproduce the single scenario with this seed (from a failure report).")
  in
  let smoke = Arg.(value & flag & info [ "smoke" ] ~doc:"Run the bundled smoke scenario.") in
  let transfer =
    Arg.(value & flag
         & info [ "transfer" ]
             ~doc:"Run the bundled state-transfer scenarios: a long \
                   partition healed into a snapshot install, and a \
                   corrupt-donor variant that must reject forged payloads \
                   before recovering.")
  in
  let restart =
    Arg.(value & flag
         & info [ "restart" ]
             ~doc:"Run the bundled restart-from-disk scenarios (journaling \
                   on): a clean-disk power failure whose journal replay must \
                   carry the rejoin, and a lying-disk variant whose injected \
                   faults must be detected or repaired via state transfer.")
  in
  let journal =
    Arg.(value & flag
         & info [ "journal" ]
             ~doc:"Give every replica a durable write-ahead journal and \
                   unlock the fuzzer's storage episode families \
                   (power-failure restart-from-disk, lying disks, restart \
                   storms).")
  in
  let canary =
    Arg.(value & flag
         & info [ "canary" ]
             ~doc:"Enable the intentionally-broken no-commits invariant to demo failure reporting.")
  in
  let quick = Arg.(value & flag & info [ "quick" ] ~doc:"Cap duration and runs for CI.") in
  let exec_mode =
    let mode_conv =
      let parse s =
        match String.lowercase_ascii s with
        | "serial" -> Ok Config.Exec_serial
        | "parallel" -> Ok Config.Exec_parallel
        | other -> Error (`Msg (Printf.sprintf "unknown exec mode %S" other))
      in
      Arg.conv
        (parse, fun fmt m -> Format.pp_print_string fmt (Config.exec_mode_name m))
    in
    Arg.(value & opt mode_conv Config.Exec_serial
         & info [ "exec-mode" ]
             ~doc:"Execution scheduler under chaos: serial or parallel                    (conflict-aware execute pool).")
  in
  let exec_threads =
    Arg.(value & opt int 4
         & info [ "exec-threads" ] ~doc:"Execute-pool size (parallel mode).")
  in
  let trace =
    Arg.(value & opt (some string) None
         & info [ "trace" ] ~docv:"FILE"
             ~doc:"Record a structured trace of the run (--smoke or \
                   --scenario-seed) and write it to $(docv): Chrome \
                   trace-event JSON, or JSONL when $(docv) ends in .jsonl. \
                   With several protocols the file is overwritten per run.")
  in
  let trace_ring =
    Arg.(value & opt (some int) None
         & info [ "trace-ring" ] ~docv:"N"
             ~doc:"Trace ring-buffer capacity in events (default 65536).")
  in
  let term =
    Term.(const run $ protocol $ n $ duration $ seed $ runs $ scenario_seed
          $ smoke $ transfer $ restart $ journal $ canary $ quick $ exec_mode
          $ exec_threads $ trace $ trace_ring)
  in
  Cmd.v
    (Cmd.info "rcc-chaos"
       ~doc:"Seeded chaos fuzzing of RCC clusters with invariant checking")
    term

let () = exit (Cmd.eval cmd)
