module Engine = Rcc_sim.Engine
module Cluster = Rcc_runtime.Cluster
module Config = Rcc_runtime.Config
module Report = Rcc_runtime.Report
module Ledger = Rcc_storage.Ledger
module Byz = Rcc_replica.Byz

type outcome = {
  cfg : Config.t;
  script : Script.t;
  report : Report.t;
  violations : (Engine.time * Invariant.violation) list;
  trace_file : string option;
  events : Rcc_trace.Event.t list;
}

let passed outcome = outcome.violations = []

(* Replicas outside the safety guarantee right now: every spec that is
   currently byzantine (configured faults stay on; scripted ones may have
   been switched off, which [Nemesis.tainted] still remembers), plus the
   currently-dead set — a crashed replica cannot be expected to agree.
   Crucially this is the dead set now, not every replica that ever
   crashed: a replica revived or journal-recovered via
   [Restart_from_disk] drops back out of the dead set and re-enters the
   agreement / no-divergence checks after its drain window. *)
let excluded cluster nemesis =
  let n = (Cluster.config cluster).Config.n in
  let byz_now =
    List.filter
      (fun r -> (Cluster.byz_spec cluster r).Byz.byzantine)
      (List.init n (fun r -> r))
  in
  List.sort_uniq compare
    (byz_now @ Nemesis.tainted nemesis @ Nemesis.dead_now nemesis)

(* A replica the script and config never touch, to witness liveness. *)
let witness cfg script =
  let faulty =
    Script.faulty_replicas script
    @ (match cfg.Config.fault with Config.Crash dead -> dead | _ -> [])
  in
  let rec scan r =
    if r >= cfg.Config.n then None
    else if List.mem r faulty then scan (r + 1)
    else Some r
  in
  scan 0

let run ?check_every ?(expect_progress = true) ?(quiesced_check = true)
    ?(canary = false) ?nemesis_seed ?trace_path ?trace_ring (cfg : Config.t)
    script =
  let duration = cfg.Config.duration in
  let check_every =
    match check_every with Some t -> max 1 t | None -> max 1 (duration / 10)
  in
  let tracer =
    match (trace_path, trace_ring) with
    | None, None -> None
    | _ -> Some (Rcc_trace.Recorder.create ?capacity:trace_ring ())
  in
  let cluster = Cluster.build ?tracer cfg in
  let nemesis = Nemesis.install ?seed:nemesis_seed cluster script in
  let engine = Cluster.engine cluster in
  let violations = ref [] in
  let record vs =
    let now = Engine.now engine in
    List.iter
      (fun (v : Invariant.violation) ->
        (* Stamp the detection into the trace so the violation shows up
           amid the trailing event window it is dumped with. *)
        Option.iter
          (fun r ->
            Rcc_trace.Recorder.record r
              {
                Rcc_trace.Event.at = now;
                replica = -1;
                instance = -1;
                payload = Rcc_trace.Event.Violation { name = v.Invariant.invariant };
              })
          tracer;
        violations := (now, v) :: !violations)
      vs
  in
  (* Periodic mid-run safety checks. *)
  let rec arm at =
    if at < duration then
      Engine.schedule_at engine at (fun () ->
          record (Invariant.safety cluster ~exclude:(excluded cluster nemesis));
          arm (at + check_every))
  in
  arm check_every;
  (* Snapshot a healthy replica's progress once the script has fully
     played out; the post-heal ledger must grow past it. *)
  let witness_replica = witness cfg script in
  let snapshot = ref None in
  let last_event = Script.last_event_time script in
  (match witness_replica with
  | Some w when script <> [] && last_event < duration ->
      Engine.schedule_at engine last_event (fun () ->
          snapshot := Some (Ledger.length (Cluster.ledger cluster w)))
  | Some _ | None -> ());
  let report = Cluster.run cluster in
  (* Drain before judging convergence: the run ends mid-flight — lagging
     replicas may still hold queued catch-up work (rounds of execution
     ahead of a pending view-sync adoption). Stop the load source and
     step the engine in bounded increments until the cluster quiesces or
     the drain budget (50% of the run) is exhausted; a genuinely diverged
     cluster still fails, an in-flight one gets to finish its recovery. *)
  if quiesced_check then begin
    Cluster.stop_clients cluster;
    let sent_at_stop = Cluster.client_requests_sent cluster in
    let step = max 1 (duration / 20) in
    let bound = duration + max step (duration / 2) in
    let rec drain at =
      if
        at <= bound
        && Invariant.quiesced cluster ~exclude:(excluded cluster nemesis) <> []
      then begin
        Engine.run engine ~until:at;
        drain (at + step)
      end
    in
    drain (duration + step);
    (* The drain must be injection-free: with the pool stopped, neither
       closed-loop next-requests, retry timers, nor the open-loop arrival
       process may put new client requests on the network — a leak here
       means the quiesced judgement races fresh load. *)
    let sent_after = Cluster.client_requests_sent cluster in
    if sent_after > sent_at_stop then
      record
        [
          {
            Invariant.invariant = "drain-injection-free";
            detail =
              Printf.sprintf
                "%d client requests injected after stop_clients"
                (sent_after - sent_at_stop);
          };
        ]
  end;
  let exclude = excluded cluster nemesis in
  record
    (if quiesced_check then Invariant.quiesced cluster ~exclude
     else Invariant.safety cluster ~exclude);
  if expect_progress then begin
    if report.Report.committed_txns = 0 then
      record
        [
          {
            Invariant.invariant = "liveness-commits";
            detail = "no client transaction committed over the whole run";
          };
        ];
    match (witness_replica, !snapshot) with
    | Some w, Some before ->
        let after = Ledger.length (Cluster.ledger cluster w) in
        if after <= before then
          record
            [
              {
                Invariant.invariant = "liveness-post-heal";
                detail =
                  Printf.sprintf
                    "replica %d's ledger stuck at %d rounds after the last \
                     scripted fault"
                    w before;
              };
            ]
    | _ -> ()
  end;
  if canary && report.Report.committed_txns > 0 then
    record
      [
        {
          Invariant.invariant = "canary-no-commits";
          detail =
            Printf.sprintf
              "intentionally-broken invariant: %d transactions committed"
              report.Report.committed_txns;
        };
      ];
  let trace_file =
    match (trace_path, tracer) with
    | Some path, Some recorder ->
        (* Always write the ring's trailing window — on FAIL it is the
           forensic dump, on PASS the CI artifact. *)
        if Filename.check_suffix path ".jsonl" then
          Rcc_trace.Sink.write_jsonl recorder ~path
        else Rcc_trace.Sink.write_chrome recorder ~path;
        Some path
    | _ -> None
  in
  let events =
    match tracer with Some r -> Rcc_trace.Recorder.to_list r | None -> []
  in
  { cfg; script; report; violations = List.rev !violations; trace_file; events }

let pp_outcome fmt outcome =
  let r = outcome.report in
  if passed outcome then
    Format.fprintf fmt "PASS %s n=%d rounds=%d txns=%d replacements=%d@."
      r.Report.protocol r.Report.n r.Report.ledger_rounds
      r.Report.committed_txns r.Report.replacements
  else begin
    Format.fprintf fmt "FAIL %s n=%d rounds=%d txns=%d (%d violations)@."
      r.Report.protocol r.Report.n r.Report.ledger_rounds
      r.Report.committed_txns
      (List.length outcome.violations);
    List.iter
      (fun (at, v) ->
        Format.fprintf fmt "  at %dms %s@." (at / 1_000_000)
          (Invariant.to_string v))
      outcome.violations;
    Format.fprintf fmt "script:@.%s" (Script.to_string outcome.script)
  end;
  match outcome.trace_file with
  | Some path -> Format.fprintf fmt "trace written to %s@." path
  | None -> ()
