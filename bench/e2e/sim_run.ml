(* One simulated deployment, timed from the outside: Cluster.build and
   Cluster.run under a monotonic clock, plus read-only probes scheduled on
   the engine before the run. The probes snapshot cumulative counters at
   the end of warmup (so per-transaction ratios cover the same window as
   committed_txns) and sample the committed count every [probe_step] to
   find the longest interval without a client completion. They only read
   state, so every modeled number equals that of a run without them. *)

module Cluster = Rcc_runtime.Cluster
module Config = Rcc_runtime.Config
module Report = Rcc_runtime.Report
module Engine = Rcc_sim.Engine
module Net = Rcc_sim.Net
module Metrics = Rcc_replica.Metrics
module Recorder = Rcc_trace.Recorder
module Journal = Rcc_journal.Journal
module Ledger = Rcc_storage.Ledger
module Block = Rcc_storage.Block

let now_s () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* Words allocated on the minor heap so far: every allocation but the
   large blocks that go straight to the major heap. The same count as
   bench/perf.ml's words/event. *)
let allocated_words () = Gc.minor_words ()

let median xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let probe_step = Engine.us 20

type counters = {
  events : int;
  msgs : int;
  bytes : int;
  words : float;
  contract_bytes : int;
  jrn_flushes : int;
  jrn_bytes : int;
  rounds : int;  (** replica 0's ledger length *)
  ring : int;  (** tracer ring recordings *)
}

type t = {
  cluster : Cluster.t;
  report : Report.t;
  setup_s : float;
  wall_s : float;
  stall_ms : float;
  at_warmup : counters;
  at_end : counters;
  own_events : int;  (** post-warmup engine events that were our probes *)
}

let journal_sum c f =
  let n = (Cluster.config c).Config.n in
  let total = ref 0 in
  for r = 0 to n - 1 do
    Option.iter (fun j -> total := !total + f j) (Cluster.journal_of c r)
  done;
  !total

let counters ?tracer c =
  let engine = Cluster.engine c and net = Cluster.net c in
  {
    events = Engine.events_processed engine;
    msgs = Net.messages_sent net;
    bytes = Net.bytes_sent net;
    words = allocated_words ();
    contract_bytes = Metrics.contract_bytes (Cluster.metrics c);
    jrn_flushes = journal_sum c Journal.flushes;
    jrn_bytes = journal_sum c Journal.bytes_flushed;
    rounds = Ledger.length (Cluster.ledger c 0);
    ring =
      (match tracer with
      | Some r -> Recorder.recorded r - Recorder.pinned r
      | None -> 0);
  }

let execute ?tracer ?crash_at (cfg : Config.t) =
  let t0 = now_s () in
  let c = Cluster.build ?tracer cfg in
  let setup_s = now_s () -. t0 in
  let engine = Cluster.engine c in
  let metrics = Cluster.metrics c in
  let warmup = cfg.Config.warmup and stop = cfg.Config.duration in
  let at_warmup = ref None and own_events = ref 0 in
  let last_count = ref 0 and last_change = ref warmup and stall = ref 0 in
  Engine.schedule_at engine warmup (fun () ->
      at_warmup := Some (counters ?tracer c));
  let rec probe at =
    if at <= stop then
      Engine.schedule_at engine at (fun () ->
          incr own_events;
          let count = Metrics.committed_txns metrics in
          if count <> !last_count then begin
            stall := max !stall (at - !last_change);
            last_change := at;
            last_count := count
          end;
          probe (at + probe_step))
  in
  probe (warmup + probe_step);
  Option.iter
    (fun at ->
      let victim = Cluster.primary_of_instance c 1 in
      Engine.schedule_at engine (Engine.of_seconds at) (fun () ->
          incr own_events;
          Net.set_dead (Cluster.net c) victim true))
    crash_at;
  let t1 = now_s () in
  let report = Cluster.run c in
  let wall_s = now_s () -. t1 in
  let at_end = counters ?tracer c in
  stall := max !stall (stop - !last_change);
  {
    cluster = c;
    report;
    setup_s;
    wall_s;
    stall_ms = Engine.to_seconds !stall *. 1e3;
    at_warmup = Option.get !at_warmup;
    at_end;
    own_events = !own_events;
  }

(* Post-warmup engine events of the model itself. *)
let model_events r = r.at_end.events - r.at_warmup.events - r.own_events

(* Every virtual-time quantity the benchmark reports, printed exactly:
   two runs of one config and seed must produce the same string. *)
let fingerprint r =
  let p = r.report in
  let ol =
    match p.Report.open_loop with
    | Some o ->
        Printf.sprintf "offered=%d injected=%d dropped=%d q99=%h"
          o.Report.offered_txns o.Report.injected_txns o.Report.dropped_txns
          o.Report.queue_p99
    | None -> "closed"
  in
  Printf.sprintf
    "tput=%h p50=%h p99=%h committed=%d events=%d msgs=%d bytes=%d stall=%h \
     vc=%d repl=%d rounds=%d jrn=%d/%d %s"
    p.Report.throughput p.Report.p50_latency p.Report.p99_latency
    p.Report.committed_txns p.Report.sim_events p.Report.messages
    p.Report.bytes_sent r.stall_ms p.Report.view_changes p.Report.replacements
    p.Report.ledger_rounds p.Report.jrn_flushes p.Report.jrn_bytes ol

(* Output checks on one finished run; returns the failures found. Every
   live replica's ledger must be a prefix of the longest one: blocks are
   compared by hash, which covers the agreed content and the chain link
   but not the per-replica certificate digests. *)
let check r =
  let c = r.cluster in
  let n = (Cluster.config c).Config.n in
  let errors = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
  if r.report.Report.committed_txns <= 0 then fail "no transaction committed";
  (match Ledger.validate (Cluster.ledger c 0) with
  | Ok () -> ()
  | Error e -> fail "replica 0 ledger invalid: %s" e);
  let live =
    List.filter (fun i -> not (Net.is_dead (Cluster.net c) i)) (List.init n Fun.id)
  in
  let len i = Ledger.length (Cluster.ledger c i) in
  let longest =
    List.fold_left (fun best i -> if len i > len best then i else best)
      (List.hd live) live
  in
  let reference = Cluster.ledger c longest in
  List.iter
    (fun i ->
      let l = Cluster.ledger c i in
      let diverged = ref None in
      for round = len i - 1 downto 0 do
        match (Ledger.get l round, Ledger.get reference round) with
        | Some a, Some b when String.equal (Block.hash a) (Block.hash b) -> ()
        | _ -> diverged := Some round
      done;
      Option.iter
        (fun round ->
          fail "replica %d's ledger differs from replica %d's at round %d" i
            longest round)
        !diverged)
    live;
  List.rev !errors

(* Live heap after the run, with the cluster still reachable. Gc.stat
   reports what the last completed major cycle found live, so one is
   completed first. *)
let live_mb r =
  Gc.full_major ();
  let st = Gc.stat () in
  ignore (Sys.opaque_identity r.cluster);
  float_of_int st.Gc.live_words *. float_of_int (Sys.word_size / 8) *. 1e-6
