(* The end-to-end benchmark: four open-loop workloads through
   Cluster.build/run, with output checks (see README.md).

     rcc_bench --workload paper-multip --seed 42 --seconds 15 --trace 0
     rcc_bench --seed 42        # every workload, both modes
     rcc_bench --quick          # tiny spans, the runtest profile
     rcc_bench --manifest       # prints BENCHMARK.json

   --trace 0 prints the metrics of Spec.end_to_end, --trace 1 those of
   Spec.per_layer. The last stdout line of a run is one JSON object:
   correct, attempted, failed, metrics. A failed check makes [correct]
   false and the exit code 1. *)

module Config = Rcc_runtime.Config
module Report = Rcc_runtime.Report
module Cluster = Rcc_runtime.Cluster
module Recorder = Rcc_trace.Recorder
module Metrics = Rcc_replica.Metrics

type result = {
  errors : string list;
  attempted : int;  (** txns offered in the rated runs *)
  failed : int;  (** of those, dropped at the in-flight cap *)
  values : (string * float) list;
}

(* The --quick profile: shrunk spans, no progress output, no compaction. *)
let quick = ref false

let log fmt =
  Printf.ksprintf (fun s -> if not !quick then (prerr_string s; flush stderr)) fmt

(* Compacting first gives every timed run the same starting heap. *)
let fresh_run ?tracer ?crash_at cfg =
  if not !quick then Gc.compact ();
  Sim_run.execute ?tracer ?crash_at cfg

let offered (r : Sim_run.t) =
  match r.Sim_run.report.Report.open_loop with
  | Some o -> (o.Report.offered_txns, o.Report.injected_txns, o.Report.dropped_txns)
  | None -> (0, 0, 0)

let lat_samples (r : Sim_run.t) =
  Metrics.committed_batches (Cluster.metrics r.Sim_run.cluster)

(* Metrics keeps client latencies in log buckets 2% wide (growth 1.02,
   see Stats.Histogram) and answers a percentile with its bucket's
   midpoint. Finding where the target rank sits among the ranks of its
   bucket and interpolating geometrically gives a continuous estimate
   instead of one that moves in 2% steps. Returns ms. *)
let latency_ms (r : Sim_run.t) p =
  let m = Cluster.metrics r.Sim_run.cluster in
  let n = Metrics.committed_batches m in
  (* the bucket midpoint Metrics reports for the sample of rank k *)
  let at k = Metrics.latency_percentile m ((float_of_int k -. 0.5) /. float_of_int n) in
  (* the smallest k in [lo, hi] where the monotone [holds] is true *)
  let rec search holds lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if holds mid then search holds lo mid else search holds (mid + 1) hi
  in
  if n = 0 then 0.0
  else begin
    let target = max 1 (min n (int_of_float (Float.ceil (p *. float_of_int n)))) in
    let v = at target in
    let lo = search (fun k -> at k >= v) 1 target in
    let hi = if at n = v then n else search (fun k -> at k > v) target n - 1 in
    let pos = (float_of_int (target - lo) +. 0.5) /. float_of_int (hi - lo + 1) in
    v *. (1.02 ** (pos -. 0.5)) *. 1e3
  end

(* --- end-to-end: pooled rated runs + one overload run -------------------- *)

type rated = {
  fingerprint : string;
  setup_s : float;
  wall_s : float;
  live_mb : float;
  tput : float;
  p50_ms : float;
  p99_ms : float;
  stall_ms : float;
  samples : int;
  load : int * int * int;  (** offered, injected, dropped txns *)
}

let rated (w : Spec.workload) ~seed i =
  let r =
    fresh_run ?crash_at:w.Spec.crash_at
      (Spec.config ~seed:(Spec.sub_seed seed i) w w.Spec.rated)
  in
  let x =
    {
      fingerprint = Sim_run.fingerprint r;
      setup_s = r.Sim_run.setup_s;
      wall_s = r.Sim_run.wall_s;
      live_mb = Sim_run.live_mb r;
      tput = r.Sim_run.report.Report.throughput;
      p50_ms = latency_ms r 0.5;
      p99_ms = latency_ms r 0.99;
      stall_ms = r.Sim_run.stall_ms;
      samples = lat_samples r;
      load = offered r;
    }
  in
  log "  rated run %d: setup %.3f s, run %.3f s, live %.1f MB, %d samples\n" i
    x.setup_s x.wall_s x.live_mb x.samples;
  (x, Sim_run.check r)

let mean xs = List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

(* Metrics that repeat exactly for one seed (the modeled ones and the
   live heap) are means over the [subruns] rated runs. The timings take
   in repeats of the first run too, which continue until [seconds] have
   passed and must reproduce its virtual-time results exactly: set-up is
   their median, and the run's wall time their minimum, because on a
   shared machine noise only ever adds time, in bursts of seconds that a
   median of a few runs does not reject. *)
let end_to_end (w : Spec.workload) ~seed ~seconds =
  let errors = ref [] in
  let fail e = errors := !errors @ [ e ] in
  let start = Sim_run.now_s () in
  (* The overload run goes first: it also warms the heap up, which would
     otherwise make the first rated run's wall time an outlier. *)
  let over =
    fresh_run
      (Spec.config
         ~rate:(fun w -> w.Spec.overload_rate)
         ~seed:(Spec.sub_seed seed 0) w w.Spec.overload)
  in
  List.iter fail (Sim_run.check over);
  log "  overload: %.0f txn/s committed, run %.3f s\n"
    over.Sim_run.report.Report.throughput over.Sim_run.wall_s;
  let run i =
    let x, errs = rated w ~seed i in
    List.iter fail errs;
    x
  in
  let subs = List.init w.Spec.subruns run in
  let first = List.hd subs in
  let rec repeats acc =
    let r = run 0 in
    if r.fingerprint <> first.fingerprint then
      fail "a repeated rated run differs in virtual time";
    let acc = r :: acc in
    if List.length acc >= 20 || Sim_run.now_s () -. start >= seconds then acc
    else repeats acc
  in
  let runs = subs @ repeats [] in
  if not !quick then
    List.iter
      (fun r ->
        if r.samples < 1000 then
          fail (Printf.sprintf "only %d latency samples (< 1000)" r.samples))
      subs;
  let sum f = List.fold_left (fun acc r -> acc + f r.load) 0 subs in
  let offered_txns = sum (fun (o, _, _) -> o) and dropped = sum (fun (_, _, d) -> d) in
  log "  offered %d txns, injected %d, dropped %d\n" offered_txns
    (sum (fun (_, i, _) -> i))
    dropped;
  let avg f = mean (List.map f subs) and all f = List.map f runs in
  {
    errors = !errors;
    attempted = offered_txns;
    failed = dropped;
    values =
      [
        ("tput_txn_s", avg (fun r -> r.tput));
        ("lat_p50_ms", avg (fun r -> r.p50_ms));
        ("lat_p99_ms", avg (fun r -> r.p99_ms));
        ("stall_ms", avg (fun r -> r.stall_ms));
        ("peak_txn_s", over.Sim_run.report.Report.throughput);
        ("wall_s", List.fold_left Float.min infinity (all (fun r -> r.wall_s)));
        ("setup_s", Sim_run.median (all (fun r -> r.setup_s)));
        ("live_mb", avg (fun r -> r.live_mb));
      ];
  }

(* --- per-layer: accessors of a rated run, a traced run, microbenches ---- *)

let accessor_metrics (r : Sim_run.t) =
  let p = r.Sim_run.report in
  let cfg = Cluster.config r.Sim_run.cluster in
  let committed = float_of_int (max 1 p.Report.committed_txns) in
  let events = float_of_int (Sim_run.model_events r) in
  let delta f = float_of_int (f r.Sim_run.at_end - f r.Sim_run.at_warmup) in
  let words = r.Sim_run.at_end.Sim_run.words -. r.Sim_run.at_warmup.Sim_run.words in
  let _, injected, _ = offered r in
  let sent = Cluster.client_requests_sent r.Sim_run.cluster in
  let resent = sent - (injected / cfg.Config.batch_size) in
  let replica_rounds = float_of_int cfg.Config.n *. delta (fun c -> c.Sim_run.rounds) in
  [
    ("sim.engine.events_per_txn", events /. committed);
    ("sim.engine.words_per_event", words /. events);
    ("sim.engine.words_per_txn", words /. committed);
    ("sim.engine.events_per_s", float_of_int p.Report.sim_events /. r.Sim_run.wall_s);
    ("sim.engine.cpu_s", p.Report.wall_seconds);
    ("sim.net.msgs_per_txn", delta (fun c -> c.Sim_run.msgs) /. committed);
    ("sim.net.bytes_per_txn", delta (fun c -> c.Sim_run.bytes) /. committed);
    ( "replica.client_pool.queue_p99",
      match p.Report.open_loop with Some o -> o.Report.queue_p99 | None -> 0.0 );
    ( "replica.client_pool.resend_frac",
      if sent = 0 then 0.0 else float_of_int resent /. float_of_int sent );
    ("replica.client_pool.lat_samples", float_of_int (lat_samples r));
    ("core.coordinator.view_changes", float_of_int p.Report.view_changes);
    ("core.coordinator.replacements", float_of_int p.Report.replacements);
    ( "core.coordinator.contract_bytes_per_txn",
      delta (fun c -> c.Sim_run.contract_bytes) /. committed );
    ( "journal.flushes_per_round",
      if replica_rounds = 0.0 then 0.0
      else delta (fun c -> c.Sim_run.jrn_flushes) /. replica_rounds );
    ("journal.bytes_per_txn", delta (fun c -> c.Sim_run.jrn_bytes) /. committed);
    ("journal.snapshots", float_of_int p.Report.jrn_snapshots);
    ("state_transfer.installs", float_of_int p.Report.snap_installs);
  ]

(* Trace events recorded per model event, with headroom (measured: 2.5
   for MultiP, 3.2 for MultiZ); the traced run checks that it sufficed. *)
let trace_events_per_event = 4

let per_layer (w : Spec.workload) ~seed ~micro =
  let errors = ref [] in
  let fail e = errors := !errors @ [ e ] in
  let seed = Spec.sub_seed seed 0 in
  let run ?tracer span =
    let r = fresh_run ?tracer ?crash_at:w.Spec.crash_at (Spec.config ~seed w span) in
    List.iter fail (Sim_run.check r);
    r
  in
  let rated = run w.Spec.rated in
  let twin = run w.Spec.traced in
  let capacity =
    (trace_events_per_event
    * (twin.Sim_run.at_end.Sim_run.events - twin.Sim_run.at_warmup.Sim_run.events))
    + 100_000
  in
  let tracer = Recorder.create ~capacity () in
  let traced = run ~tracer w.Spec.traced in
  let kept = traced.Sim_run.at_end.Sim_run.ring - traced.Sim_run.at_warmup.Sim_run.ring in
  log "  traced: %d post-warmup events in a ring of %d; run %.3f s, untraced %.3f s\n"
    kept capacity traced.Sim_run.wall_s twin.Sim_run.wall_s;
  if kept > capacity then
    fail (Printf.sprintf "traced run dropped %d post-warmup events" (kept - capacity));
  if Sim_run.fingerprint traced <> Sim_run.fingerprint twin then
    fail "traced run differs from its untraced twin in virtual time";
  let cfg = Cluster.config traced.Sim_run.cluster in
  let offered_txns, _, dropped = offered rated in
  {
    errors = !errors;
    attempted = offered_txns;
    failed = dropped;
    values =
      accessor_metrics rated
      @ Layers.analyze cfg traced.Sim_run.report tracer ~w0:cfg.Config.warmup
          ~w1:cfg.Config.duration
      @ [ ("trace.overhead_x", traced.Sim_run.wall_s /. twin.Sim_run.wall_s) ]
      @ micro;
  }

(* --- output ------------------------------------------------------------ *)

(* Orders [values] by the declared metrics; a declared metric without a
   finite value is an error. *)
let complete (decls : Spec.metric list) res =
  let missing = ref [] in
  let metrics =
    List.map
      (fun (m : Spec.metric) ->
        match List.assoc_opt m.Spec.m_name res.values with
        | Some v when Float.is_finite v -> (m, v)
        | Some _ | None ->
            missing := m.Spec.m_name :: !missing;
            (m, 0.0))
      decls
  in
  (res.errors @ List.rev_map (Printf.sprintf "metric %s has no finite value") !missing,
   metrics)

let json_line ~prefix ~errors res metrics =
  let b = Buffer.create 4096 in
  Printf.bprintf b "{%s\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {"
    prefix (errors = []) res.attempted res.failed;
  List.iteri
    (fun i ((m : Spec.metric), v) ->
      Printf.bprintf b "%s%S: {\"value\": %.17g, \"unit\": %S}"
        (if i = 0 then "" else ", ")
        m.Spec.m_name v m.Spec.m_unit)
    metrics;
  Buffer.add_string b "}}";
  Buffer.contents b

(* Runs one workload in one mode; prints the metric table to stderr and
   the JSON line to stdout. Returns whether every check held. *)
let run_one ~prefix (w : Spec.workload) ~seed ~seconds ~trace ~micro =
  let w = if !quick then Spec.shrink w else w in
  log "[rcc_bench] %s seed=%d trace=%d\n" w.Spec.name seed (if trace then 1 else 0);
  let res, decls =
    if trace then (per_layer w ~seed ~micro:(Lazy.force micro), Spec.per_layer)
    else (end_to_end w ~seed ~seconds, Spec.end_to_end)
  in
  let errors, metrics = complete decls res in
  List.iter
    (fun ((m : Spec.metric), v) -> log "  %-44s %16.6g %s\n" m.Spec.m_name v m.Spec.m_unit)
    metrics;
  List.iter (Printf.eprintf "%s: CHECK FAILED: %s\n%!" w.Spec.name) errors;
  print_endline (json_line ~prefix ~errors res metrics);
  errors = []

let () =
  let workload = ref "" and seed = ref 42 and seconds = ref (float Spec.run_seconds) in
  let trace = ref (-1) and manifest = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME run one workload (default: all)");
      ("--seed", Arg.Set_int seed, "N workload seed (default 42)");
      ("--seconds", Arg.Set_float seconds, "S repeat rated runs until S seconds have passed");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ("--quick", Arg.Set quick, " tiny spans, one rated run");
      ("--manifest", Arg.Set manifest, " print BENCHMARK.json and exit");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "rcc_bench [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--quick]";
  if !manifest then begin
    print_string (Spec.manifest ());
    exit 0
  end;
  let workloads =
    if !workload = "" then Spec.workloads
    else
      match Spec.find_workload !workload with
      | Some w -> [ w ]
      | None ->
          Printf.eprintf "unknown workload %S\n" !workload;
          exit 2
  in
  let modes =
    match !trace with
    | 0 -> [ false ]
    | 1 -> [ true ]
    | -1 -> [ false; true ]
    | t ->
        Printf.eprintf "--trace must be 0 or 1, not %d\n" t;
        exit 2
  in
  if !quick then seconds := 0.0;
  (* Measured once per process, before any cluster runs. *)
  let micro = lazy (Micro.run ~quick:!quick) in
  if List.mem true modes then ignore (Lazy.force micro);
  let single = List.length workloads = 1 && List.length modes = 1 in
  let outcomes =
    List.concat_map
      (fun (w : Spec.workload) ->
        List.map
          (fun trace ->
            let prefix =
              if single then ""
              else
                Printf.sprintf "\"workload\": %S, \"seed\": %d, \"trace\": %d, "
                  w.Spec.name !seed (if trace then 1 else 0)
            in
            run_one ~prefix w ~seed:!seed ~seconds:!seconds ~trace ~micro)
          modes)
      workloads
  in
  exit (if List.for_all Fun.id outcomes then 0 else 1)
