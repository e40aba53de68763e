(* What the benchmark runs and what it reports: the four workloads, the
   end-to-end metrics with their regression bounds, and the per-layer
   metric names. BENCHMARK.json is generated from this file
   ([rcc_bench --manifest]) and a runtest rule diffs the two. *)

module Config = Rcc_runtime.Config
module Engine = Rcc_sim.Engine

type workload = {
  name : string;
  why : string;
  protocol : Config.protocol;
  exec_mode : Config.exec_mode;
  theta : float;
  records : int;
  journal : bool;
  checkpoint_interval : int;
  replica_timeout : float option;
  rate : float;  (** rated offered load, txn/s *)
  crash_at : float option;
      (** simulated time at which instance 1's primary is killed *)
  subruns : int;  (** rated runs per measurement, each on its own seed *)
  rated : span;
  overload_rate : float;  (** offered load of the overload run, txn/s *)
  overload : span;  (** the fault-free run that measures capacity *)
  traced : span;  (** the traced run and its untraced twin *)
}

and span = { warmup : float; duration : float }
(** Simulated seconds: nothing before [warmup] counts; the run ends at
    [duration]. *)

(* All four share n = 16 (f = 5, z = 6), batch 100, 10 000 clients, the
   Config default network and open-loop Poisson arrivals; they differ in
   the layer they load. A measurement pools [subruns] short rated runs on
   seeds derived from the benchmark seed: the seed-to-seed spread of a
   latency percentile shrinks with the number of independent runs, not
   with the length of one, and short runs keep the heap small. Spans are
   sized so that one run of a workload takes 15-30 s of wall time on a
   2-core machine. *)
let workloads =
  [
    {
      name = "paper-multip";
      why =
        "The paper's headline deployment (MultiP, YCSB theta 0.9) at 80% of \
         the execute ceiling; engine, net, codec and crypto dominate wall \
         time.";
      protocol = Config.MultiP;
      exec_mode = Config.Exec_serial;
      theta = 0.9;
      records = 500_000;
      journal = false;
      checkpoint_interval = 128;
      replica_timeout = None;
      rate = 300_000.0;
      crash_at = None;
      subruns = 4;
      overload_rate = 600_000.0;
      rated = { warmup = 0.3; duration = 0.9 };
      overload = { warmup = 0.3; duration = 0.8 };
      traced = { warmup = 0.3; duration = 0.4 };
    };
    {
      name = "multiz-journal";
      why =
        "MultiZ with the durable journal on: the storage and checkpoint \
         layer beside the execute path, few net events, all-n client \
         quorum.";
      protocol = Config.MultiZ;
      exec_mode = Config.Exec_serial;
      theta = 0.9;
      records = 500_000;
      journal = true;
      (* A journal snapshot every 4 x 48 rounds, about 0.4 s, so that
         each rated run writes one per replica (the default 128 writes
         none in 0.55 s). *)
      checkpoint_interval = 48;
      replica_timeout = None;
      rate = 300_000.0;
      crash_at = None;
      subruns = 5;
      overload_rate = 600_000.0;
      rated = { warmup = 0.15; duration = 0.55 };
      overload = { warmup = 0.15; duration = 0.45 };
      traced = { warmup = 0.3; duration = 0.45 };
    };
    {
      name = "parallel-lowconflict";
      why =
        "Parallel execute pool (4 threads) on low-contention keys (theta \
         0.3, 2M records): the only workload where the conflict scheduler \
         works.";
      protocol = Config.MultiP;
      exec_mode = Config.Exec_parallel;
      theta = 0.3;
      records = 2_000_000;
      journal = false;
      checkpoint_interval = 128;
      replica_timeout = None;
      rate = 900_000.0;
      crash_at = None;
      subruns = 5;
      overload_rate = 1_800_000.0;
      rated = { warmup = 0.15; duration = 0.3 };
      (* Past the pool's ceiling the conflict windows fill up and the
         simulator slows down about threefold per event, so the overload
         run is kept short. *)
      overload = { warmup = 0.05; duration = 0.15 };
      traced = { warmup = 0.3; duration = 0.35 };
    };
    {
      name = "crash-primary";
      why =
        "Instance 1's primary dies mid-run while requests keep arriving: \
         time without service, view change, and the round barrier \
         stalling every instance.";
      protocol = Config.MultiP;
      exec_mode = Config.Exec_serial;
      theta = 0.9;
      records = 500_000;
      journal = false;
      checkpoint_interval = 128;
      replica_timeout = Some 0.25;
      (* 27% of the execute ceiling, so that the outage and the backlog
         drain after it stay a fifth of the window and the median reflects
         normal service. At 200K the median lands among the outage
         latencies and moves by 7-28% from seed to seed; at 300K the
         crash livelocks the view change (see README). For the same
         reason the overload run, which measures capacity, is fault-free
         and offered 600K like paper-multip's. *)
      rate = 100_000.0;
      crash_at = Some 1.0;
      subruns = 3;
      overload_rate = 600_000.0;
      rated = { warmup = 0.3; duration = 2.8 };
      overload = { warmup = 0.3; duration = 0.8 };
      traced = { warmup = 0.95; duration = 1.5 };
    };
  ]

let find_workload name = List.find_opt (fun w -> w.name = name) workloads

(* Seeds of a measurement's rated runs; distinct benchmark seeds give
   disjoint sets. *)
let sub_seed seed i = (seed * 16) + i

(* The --quick profile keeps every workload's configuration and shrinks
   only simulated time, so the runtest rule exercises the same paths. *)
let shrink w =
  let short t = t /. 20.0 in
  let span s = { warmup = short s.warmup; duration = short s.duration } in
  {
    w with
    crash_at = Option.map short w.crash_at;
    subruns = 1;
    rated = span w.rated;
    overload = span w.overload;
    traced = span w.traced;
  }

let config ?(rate = fun w -> w.rate) ~seed w span =
  let cfg =
    Config.make ~protocol:w.protocol ~n:16 ~batch_size:100 ~clients:10_000
      ~duration:(Engine.of_seconds span.duration)
      ~warmup:(Engine.of_seconds span.warmup)
      ?replica_timeout:(Option.map Engine.of_seconds w.replica_timeout)
      ~records:w.records ~write_ratio:0.9 ~theta:w.theta ~exec_mode:w.exec_mode
      ~exec_threads:4 ~exec_window:8 ~arrival_rate:(rate w)
      ~arrival_process:Config.Poisson ~max_in_flight:10_000 ~journal:w.journal
      ~seed ()
  in
  { cfg with Config.checkpoint_interval = w.checkpoint_interval }

(* --- metrics ----------------------------------------------------------- *)

type better = Lower | Higher

type metric = {
  m_name : string;
  m_unit : string;
  m_better : better;
  m_bound : float;  (** share of the parent's median; end-to-end only *)
}

let e2e name unit better bound =
  { m_name = name; m_unit = unit; m_better = better; m_bound = bound }

let layer name unit better = e2e name unit better 0.0

(* Modeled metrics are virtual-time and repeat exactly for one seed; their
   bounds cover the spread across seeds. Simulator metrics are wall-clock
   and memory of the process running the model. *)
let end_to_end =
  [
    e2e "tput_txn_s" "txn/s" Higher 0.09;
    e2e "lat_p50_ms" "ms" Lower 0.07;
    e2e "lat_p99_ms" "ms" Lower 0.2;
    e2e "stall_ms" "ms" Lower 0.25;
    e2e "peak_txn_s" "txn/s" Higher 0.12;
    e2e "wall_s" "s" Lower 0.25;
    e2e "setup_s" "s" Lower 0.25;
    e2e "live_mb" "MB" Lower 0.15;
  ]

(* Server classes whose utilization the traced run reports. *)
let cpu_classes = [ "input"; "batch"; "worker"; "exec"; "exec_pool"; "disk"; "nic" ]

(* Message kinds whose per-transaction counts are reported: the top kinds
   of the four workloads. *)
let net_kinds =
  [ "client_request"; "pre_prepare"; "prepare"; "commit"; "order_request";
    "response"; "checkpoint" ]

let per_layer =
  [
    (* untraced rated run: public accessors and Report *)
    layer "sim.engine.events_per_txn" "events/txn" Lower;
    layer "sim.engine.words_per_event" "words" Lower;
    layer "sim.engine.words_per_txn" "words" Lower;
    layer "sim.engine.events_per_s" "1/s" Higher;
    layer "sim.engine.cpu_s" "s" Lower;
    layer "sim.net.msgs_per_txn" "msgs/txn" Lower;
    layer "sim.net.bytes_per_txn" "B/txn" Lower;
    layer "replica.client_pool.queue_p99" "requests" Lower;
    layer "replica.client_pool.resend_frac" "ratio" Lower;
    layer "replica.client_pool.lat_samples" "count" Higher;
    layer "core.coordinator.view_changes" "count" Lower;
    layer "core.coordinator.replacements" "count" Lower;
    layer "core.coordinator.contract_bytes_per_txn" "B/txn" Lower;
    layer "journal.flushes_per_round" "count" Lower;
    layer "journal.bytes_per_txn" "B/txn" Lower;
    layer "journal.snapshots" "count" Lower;
    layer "state_transfer.installs" "count" Lower;
  ]
  (* traced run, post-warmup window *)
  @ List.map
      (fun s -> layer (Printf.sprintf "sim.cpu.%s.util" s) "ratio" Lower)
      cpu_classes
  @ [
      layer "sim.cpu.worker.util_max" "ratio" Lower;
      layer "sim.cpu.exec.util_max" "ratio" Lower;
      layer "proto_core.order_ms.p50" "ms" Lower;
      layer "proto_core.order_ms.p99" "ms" Lower;
      layer "replica.exec.barrier_ms.p50" "ms" Lower;
      layer "replica.exec.barrier_ms.p99" "ms" Lower;
      layer "replica.exec.queue_service_ms.p50" "ms" Lower;
      layer "replica.exec.queue_service_ms.p99" "ms" Lower;
      layer "replica.exec.barrier_share" "ratio" Lower;
      layer "client_other_ms.p50" "ms" Lower;
    ]
  @ List.map
      (fun k -> layer (Printf.sprintf "sim.net.%s.msgs_per_txn" k) "msgs/txn" Lower)
      net_kinds
  @ [
      layer "replica.conflict.group_members.mean" "count" Lower;
      layer "replica.conflict.conflict_frac" "ratio" Lower;
      layer "journal.records_per_flush" "count" Higher;
      layer "trace.overhead_x" "x" Lower;
    ]
  @ List.concat_map
      (fun m -> [ layer (m ^ ".ns") "ns" Lower; layer (m ^ ".words") "words" Lower ])
      (List.map fst Micro.all)

(* --- BENCHMARK.json ----------------------------------------------------- *)

let run_seconds = 15

let better_name = function Lower -> "lower" | Higher -> "higher"

let manifest () =
  let b = Buffer.create 8192 in
  let list items f =
    List.iteri
      (fun i x ->
        Buffer.add_string b "    ";
        f x;
        Buffer.add_string b (if i = List.length items - 1 then "\n" else ",\n"))
      items
  in
  Buffer.add_string b "{\n";
  Buffer.add_string b "  \"command\": [\"sh\", \"bench/e2e/run.sh\"],\n";
  Buffer.add_string b "  \"paths\": [\"bench/e2e\"],\n";
  Printf.bprintf b "  \"run_seconds\": %d,\n" run_seconds;
  Buffer.add_string b "  \"workloads\": [\n";
  list workloads (fun w ->
      Printf.bprintf b "{\"name\": %S, \"why\": %S}" w.name w.why);
  Buffer.add_string b "  ],\n  \"end_to_end\": [\n";
  list end_to_end (fun m ->
      Printf.bprintf b
        "{\"name\": %S, \"unit\": %S, \"better\": %S, \"bound\": %g}" m.m_name
        m.m_unit (better_name m.m_better) m.m_bound);
  Buffer.add_string b "  ],\n  \"per_layer\": [\n";
  list per_layer (fun m ->
      Printf.bprintf b "{\"name\": %S, \"unit\": %S, \"better\": %S}" m.m_name
        m.m_unit (better_name m.m_better));
  Buffer.add_string b "  ]\n}\n";
  Buffer.contents b
