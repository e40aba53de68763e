module Engine = Rcc_sim.Engine
module Net = Rcc_sim.Net
module Msg = Rcc_messages.Msg
module Metrics = Rcc_replica.Metrics
module Client_pool = Rcc_replica.Client_pool
module Byz = Rcc_replica.Byz
module Builder = Rcc_core.Replica_builder
module Journal = Rcc_journal.Journal
module Sim_disk = Rcc_journal.Sim_disk

(* The one place a protocol is chosen: the RCC variants run the same
   instance module as their standalone baseline, with unification on. *)
let instance_module : Config.protocol -> (module Rcc_replica.Instance_intf.S)
    = function
  | Config.Pbft | Config.MultiP -> (module Rcc_pbft.Pbft_instance)
  | Config.Zyzzyva | Config.MultiZ -> (module Rcc_zyzzyva.Zyzzyva_instance)
  | Config.Hotstuff -> (module Rcc_hotstuff.Hotstuff_replica)
  | Config.Cft | Config.MultiC -> (module Rcc_cft.Cft_instance)

type t = {
  cfg : Config.t;
  engine : Engine.t;
  net : Msg.t Net.t;
  keychain : Rcc_crypto.Keychain.t;
  metrics : Metrics.t;
  replicas : Builder.t array;
  pool : Client_pool.t;
  machines : int;
  (* Persistent per-replica disks: they outlive builder incarnations, so
     a restart-from-disk recovers from what the previous incarnation
     flushed. Empty-of-content but always allocated (allocation costs no
     engine events, so digests are unaffected). *)
  disks : Sim_disk.t array;
  (* A fresh incarnation of replica [r] over its persistent disk. *)
  spawn : Rcc_common.Ids.replica_id -> Builder.t;
  (* Durable frontier proved by replica [r]'s most recent recovery; the
     chaos invariant asserts its ledger never regresses below this. *)
  recovery_floor : int array;
  mutable restarts : int;
  mutable replayed_rounds : int;
  mutable replayed_txns : int;
}

let config t = t.cfg
let metrics t = t.metrics
let engine t = t.engine
let client_pool t = t.pool

let ledger t r = Builder.ledger t.replicas.(r)
let store t r = Builder.store t.replicas.(r)
let txn_table t r = Builder.txn_table t.replicas.(r)
let exec t r = Builder.exec t.replicas.(r)

let primary_lookup protocol replicas x =
  match protocol with
  | Config.Hotstuff -> x
  | Config.Pbft | Config.Zyzzyva | Config.MultiP | Config.MultiZ | Config.Cft
  | Config.MultiC ->
      Builder.current_primary replicas.(0) x

let primary_of_instance t x = primary_lookup t.cfg.Config.protocol t.replicas x

let coordinator_of t r = Builder.coordinator t.replicas.(r)

let replacements_of t r =
  match coordinator_of t r with
  | Some c -> Rcc_core.Coordinator.replacements c
  | None -> 0

(* The replica whose own state the report reads: the lowest-id one the
   configured fault did not kill — a dead replica's ledger, threads and
   coordinator sit idle from the start. *)
let reporting_replica (cfg : Config.t) =
  let dead =
    match cfg.Config.fault with
    | Config.Crash dead -> dead
    | Config.No_fault | Config.Dark _ | Config.Collusion _ | Config.Client_dos _ ->
        []
  in
  let rec first r =
    if r < cfg.Config.n - 1 && List.mem r dead then first (r + 1) else r
  in
  first 0

let replacements t = replacements_of t (reporting_replica t.cfg)

(* Snapshot-transfer totals, summed over every replica's manager. *)
let transfer_totals t =
  let acc = ref (0, 0, 0, 0, 0) in
  let add (s : Rcc_state_transfer.Manager.stats) =
    let a, b, c, d, e = !acc in
    acc :=
      ( a + s.Rcc_state_transfer.Manager.installs,
        b + s.Rcc_state_transfer.Manager.rejects,
        c + s.Rcc_state_transfer.Manager.rounds_skipped,
        d + s.Rcc_state_transfer.Manager.bytes_in,
        e + s.Rcc_state_transfer.Manager.bytes_out )
  in
  Array.iter (fun r -> add (Builder.transfer_stats r)) t.replicas;
  !acc

let boundaries t r = Rcc_replica.Exec.boundaries (Builder.exec t.replicas.(r))

let net t = t.net
let byz_spec t r = (Builder.config t.replicas.(r)).Builder.byz

(* --- restart-from-disk ---------------------------------------------------- *)

(* Replace replica [r] with a fresh incarnation recovered from its
   persistent disk: halt the orphan (drops deliveries, suppresses queued
   sends, loses un-flushed journal records), build a successor over the
   same disk — [create] re-registers the net handler, displacing the
   orphan's — run journal recovery, then start it. Distinct from a
   nemesis [Restart]: that revives the same in-memory incarnation; this
   one trusts nothing but the disk. *)
let restart_from_disk t r =
  Builder.halt t.replicas.(r);
  let b = t.spawn r in
  let recov = Builder.restore b in
  t.replicas.(r) <- b;
  Builder.start b;
  Net.set_dead t.net r false;
  t.restarts <- t.restarts + 1;
  (match recov with
  | Some rv ->
      t.recovery_floor.(r) <- rv.Journal.r_frontier;
      t.replayed_rounds <- t.replayed_rounds + rv.Journal.r_replayed_rounds;
      t.replayed_txns <- t.replayed_txns + rv.Journal.r_replayed_txns
  | None -> ());
  recov

let set_storage_faults t r p =
  Sim_disk.set_faults t.disks.(r) (Sim_disk.uniform_faults p)

let recovery_floor t r = t.recovery_floor.(r)
let restarts t = t.restarts
let disk t r = t.disks.(r)

let journal_of t r = Builder.journal t.replicas.(r)

let journal_area t =
  Array.fold_left (fun acc d -> acc + Sim_disk.journal_bytes d) 0 t.disks

(* Journal-writer totals over the *current* incarnations (a restart drops
   the orphan's counters) plus disk-level fault totals, which persist. *)
let journal_totals t =
  let a = ref 0 and fl = ref 0 and by = ref 0 and sn = ref 0 in
  for r = 0 to t.cfg.Config.n - 1 do
    match journal_of t r with
    | None -> ()
    | Some j ->
        a := !a + Journal.appends j;
        fl := !fl + Journal.flushes j;
        by := !by + Journal.bytes_flushed j;
        sn := !sn + Journal.snapshots_written j
  done;
  let faults =
    Array.fold_left (fun acc d -> acc + Sim_disk.faults_injected d) 0 t.disks
  in
  (!a, !fl, !by, !sn, faults)

(* Replica [r]'s own belief about the primary set: its coordinator's in
   unified mode, its instances' views otherwise. *)
let primaries_view t r =
  match coordinator_of t r with
  | Some c -> Rcc_core.Coordinator.primaries c
  | None ->
      List.init t.cfg.Config.z (Builder.current_primary t.replicas.(r))

(* --- fault wiring -------------------------------------------------------- *)

(* Byzantine behaviour of replica [self] under the configured fault. Each
   replica gets a private copy: the chaos nemesis mutates specs in place,
   so none may alias the shared [Byz.honest] constant. *)
let byz_of (cfg : Config.t) self =
  Byz.copy
  @@
  match cfg.Config.fault with
  | Config.No_fault | Config.Crash _ -> Byz.honest
  | Config.Client_dos { instance } ->
      if self = instance then Byz.client_ignorer else Byz.honest
  | Config.Dark { instance; victims } ->
      (* Instance x is initially led by replica x. *)
      if self = instance then Byz.dark_primary ~victims ()
      else Byz.honest
  | Config.Collusion { victim; at_round } ->
      (* The byzantine set: instance 0's primary (replica 0) plus the f-1
         highest-id replicas, skipping the (honest) victim. Together with
         the victim's own honest view-change they produce f+1 accusations
         from distinct replicas, spread so no primary collects f+1. *)
      if self = 0 then
        {
          (Byz.dark_primary ~victims:[ victim ] ~from_round:at_round
             ~until_round:at_round ())
          with
          Byz.false_blame = (if cfg.Config.z > 1 then [ 1 ] else []);
        }
      else begin
        let rec blamer_ids k id acc =
          if k = 0 then acc
          else if id = victim || id = 0 then blamer_ids k (id - 1) acc
          else blamer_ids (k - 1) (id - 1) (id :: acc)
        in
        let blamers = blamer_ids (max 0 (cfg.Config.f - 1)) (cfg.Config.n - 1) [] in
        match List.find_index (fun id -> id = self) blamers with
        | Some idx when cfg.Config.z > 1 ->
            Byz.false_blamer ~blames:[ (idx mod (cfg.Config.z - 1)) + 1 ]
        | Some _ | None -> Byz.honest
      end

let apply_crashes t =
  match t.cfg.Config.fault with
  | Config.Crash dead -> List.iter (fun r -> Net.set_dead t.net r true) dead
  | Config.No_fault | Config.Dark _ | Config.Collusion _ | Config.Client_dos _ ->
      ()

(* --- assembly -------------------------------------------------------------- *)

let build ?tracer (cfg : Config.t) =
  let engine = Engine.create () in
  Option.iter (Engine.set_tracer engine) tracer;
  let clients = Config.total_clients cfg in
  (* ~20 clients per simulated client machine, as the paper's testbed.
     The ceiling is 1024 machines (not the old 50): at paper scale — 1M
     clients — per-machine network nodes are cheap, and a 50-machine pool
     would serialize 20K clients behind each NIC. Configs of <= 1000
     clients land below either cap, so default runs are unchanged. *)
  let machines = max 1 (min 1024 ((clients + 19) / 20)) in
  let rng = Rcc_common.Rng.create cfg.Config.seed in
  let net =
    Net.create engine
      ~describe:(fun msg ->
        (Msg.kind msg, Option.value (Msg.instance_of msg) ~default:(-1)))
      ~nodes:(cfg.Config.n + machines)
      ~latency:cfg.Config.latency ~jitter:Config.jitter ~gbps:Config.gbps
      ~rng:(Rcc_common.Rng.split rng)
      ()
  in
  let keychain =
    Rcc_crypto.Keychain.create ~seed:cfg.Config.seed ~n:cfg.Config.n ~clients
  in
  let metrics =
    Metrics.create ~n:cfg.Config.n
      ~instances:(Config.client_instances cfg)
      ~warmup:cfg.Config.warmup ()
  in
  let costs =
    Rcc_sim.Costs.scaled Rcc_sim.Costs.default (Config.contention_factor cfg)
  in
  let client_node_of c = cfg.Config.n + (c mod machines) in
  (* One persistent disk per replica slot, deterministically seeded; the
     same disk is handed to every incarnation of that replica. *)
  let disks =
    Array.init cfg.Config.n (fun r ->
        let d = Sim_disk.create ~seed:(cfg.Config.seed + (7919 * (r + 1))) in
        if cfg.Config.storage_faults > 0.0 then
          Sim_disk.set_faults d
            (Sim_disk.uniform_faults cfg.Config.storage_faults);
        d)
  in
  let builder_cfg self =
    {
      Builder.n = cfg.Config.n;
      f = cfg.Config.f;
      z = cfg.Config.z;
      self;
      costs;
      timeout = cfg.Config.replica_timeout;
      collusion_wait = cfg.Config.collusion_wait;
      checkpoint_interval = cfg.Config.checkpoint_interval;
      unified =
        (match cfg.Config.protocol with
        | Config.MultiP | Config.MultiZ | Config.MultiC -> true
        | Config.Pbft | Config.Zyzzyva | Config.Hotstuff | Config.Cft -> false);
      recovery = cfg.Config.recovery;
      use_permutation = cfg.Config.use_permutation;
      exec_on_worker = (cfg.Config.protocol = Config.Zyzzyva);
      sign_speculative = (cfg.Config.protocol = Config.Zyzzyva);
      records = cfg.Config.records;
      materialize_state = (self = 0 || cfg.Config.n <= 8);
      parallel_exec = (cfg.Config.exec_mode = Config.Exec_parallel);
      exec_threads = cfg.Config.exec_threads;
      exec_window = cfg.Config.exec_window;
      client_node_of;
      byz = byz_of cfg self;
      journal =
        (if cfg.Config.journal then
           Some
             (Journal.attach ~engine ~costs ~disk:disks.(self) ~self
                ~primaries:(List.init cfg.Config.z Fun.id)
                ())
         else None);
    }
  in
  let protocol = instance_module cfg.Config.protocol in
  let spawn self =
    Builder.create protocol ~engine ~net ~keychain ~metrics (builder_cfg self)
  in
  let replicas = Array.init cfg.Config.n spawn in
  let pool =
    Client_pool.create ~engine ~net ~keychain ~metrics
      ~primary_of_instance:(fun x ->
        primary_lookup cfg.Config.protocol replicas x)
      {
        Client_pool.n = cfg.Config.n;
        f = cfg.Config.f;
        z = Config.client_instances cfg;
        clients;
        machines;
        batch_size = cfg.Config.batch_size;
        quorum = Config.quorum cfg;
        request_timeout = cfg.Config.client_timeout;
        instance_change_after = cfg.Config.instance_change_after;
        first_node = cfg.Config.n;
        records = cfg.Config.records;
        write_ratio = cfg.Config.write_ratio;
        theta = cfg.Config.theta;
        seed = cfg.Config.seed + 1;
        arrival = Config.client_arrival cfg;
      }
  in
  {
    cfg;
    engine;
    net;
    keychain;
    metrics;
    replicas;
    pool;
    machines;
    disks;
    spawn;
    recovery_floor = Array.make cfg.Config.n 0;
    restarts = 0;
    replayed_rounds = 0;
    replayed_txns = 0;
  }

let affected_replica (cfg : Config.t) =
  match cfg.Config.fault with
  | Config.Collusion { victim; _ } -> victim
  | Config.Dark { victims = v :: _; _ } -> v
  | Config.Dark { victims = []; _ }
  | Config.No_fault | Config.Crash _ | Config.Client_dos _ ->
      0

(* Stop the clients injecting new load — used by the chaos runner's drain
   phase so in-flight recovery can complete before the final quiesced
   judgement. Silences both closed-loop next-requests and the open-loop
   arrival process. *)
let stop_clients t = Client_pool.stop t.pool

let client_requests_sent t = Client_pool.requests_sent t.pool

let run t =
  let wall_start = Sys.time () in
  apply_crashes t;
  Array.iter Builder.start t.replicas;
  Client_pool.start t.pool;
  Engine.run t.engine ~until:t.cfg.Config.duration;
  let reporter = t.replicas.(reporting_replica t.cfg) in
  let ledger = Builder.ledger reporter in
  let snap_installs, snap_rejects, snap_rounds_skipped, snap_bytes_in,
      snap_bytes_out =
    transfer_totals t
  in
  let jrn_appends, jrn_flushes, jrn_bytes, jrn_snapshots, jrn_faults =
    journal_totals t
  in
  {
    Report.protocol = Config.protocol_name t.cfg.Config.protocol;
    n = t.cfg.Config.n;
    batch_size = t.cfg.Config.batch_size;
    throughput = Metrics.throughput t.metrics ~duration:t.cfg.Config.duration;
    avg_latency = Metrics.avg_latency t.metrics;
    p50_latency = Metrics.latency_percentile t.metrics 0.5;
    p99_latency = Metrics.latency_percentile t.metrics 0.99;
    committed_txns = Metrics.committed_txns t.metrics;
    (* Full-run timeline: figures show the warmup ramp explicitly. *)
    timeline = Metrics.timeline ~include_warmup:true t.metrics;
    exec_timeline =
      Metrics.exec_timeline t.metrics ~replica:(affected_replica t.cfg);
    view_changes = Metrics.view_changes t.metrics;
    collusions_detected = Metrics.collusions_detected t.metrics;
    contract_bytes = Metrics.contract_bytes t.metrics;
    replacements = replacements t;
    messages = Net.messages_sent t.net;
    bytes_sent = Net.bytes_sent t.net;
    ledger_rounds = Rcc_storage.Ledger.length ledger;
    ledger_valid =
      (match Rcc_storage.Ledger.validate ledger with
      | Ok () -> true
      | Error _ -> false);
    exec_utilization = Builder.exec_utilization reporter ~since:0;
    exec_pool_utilization =
      Option.value ~default:0.0
        (Builder.exec_pool_utilization reporter ~since:0);
    worker_utilization = Builder.worker_utilization reporter 0 ~since:0;
    sim_events = Engine.events_processed t.engine;
    wall_seconds = Sys.time () -. wall_start;
    snap_installs;
    snap_rejects;
    snap_rounds_skipped;
    snap_bytes_in;
    snap_bytes_out;
    jrn_appends;
    jrn_flushes;
    jrn_bytes;
    jrn_snapshots;
    jrn_faults;
    jrn_restarts = t.restarts;
    jrn_replayed_rounds = t.replayed_rounds;
    jrn_replayed_txns = t.replayed_txns;
    open_loop =
      Option.map
        (fun (s : Client_pool.open_loop_stats) ->
          let batch = t.cfg.Config.batch_size in
          {
            Report.offered_rate = t.cfg.Config.arrival_rate;
            offered_txns = s.Client_pool.offered_batches * batch;
            injected_txns = s.Client_pool.injected_batches * batch;
            dropped_txns = s.Client_pool.dropped_batches * batch;
            queue_p50 = s.Client_pool.queue_p50;
            queue_p99 = s.Client_pool.queue_p99;
            max_depth = s.Client_pool.max_depth;
          })
        (Client_pool.open_loop_stats t.pool);
    per_instance =
      (let replied_retained =
         Rcc_replica.Exec.replied_retained (Builder.exec reporter)
       in
      Array.init (Metrics.instances t.metrics) (fun x ->
          let i_retained_slots =
            if x < t.cfg.Config.z then Builder.retained_slots reporter x else 0
          in
          {
            Report.instance = x;
            i_throughput =
              Metrics.instance_throughput t.metrics x
                ~duration:t.cfg.Config.duration;
            i_avg_latency = Metrics.instance_avg_latency t.metrics x;
            i_p50_latency = Metrics.instance_latency_percentile t.metrics x 0.5;
            i_p99_latency = Metrics.instance_latency_percentile t.metrics x 0.99;
            i_txns = Metrics.instance_txns t.metrics x;
            i_view_changes = Metrics.instance_view_changes t.metrics x;
            i_retained_slots;
            i_replied_retained =
              (if x < Array.length replied_retained then replied_retained.(x)
               else 0);
            i_rolled_back_rounds =
              Metrics.instance_rolled_back_rounds t.metrics x;
            i_rolled_back_txns = Metrics.instance_rolled_back_txns t.metrics x;
          }));
  }

let run_config ?tracer cfg = run (build ?tracer cfg)
