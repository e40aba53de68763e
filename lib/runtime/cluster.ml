module Engine = Rcc_sim.Engine
module Net = Rcc_sim.Net
module Msg = Rcc_messages.Msg
module Metrics = Rcc_replica.Metrics
module Client_pool = Rcc_replica.Client_pool
module Byz = Rcc_replica.Byz
module Builder = Rcc_core.Replica_builder
module Journal = Rcc_journal.Journal
module Sim_disk = Rcc_journal.Sim_disk

module B_pbft = Builder.Make (Rcc_pbft.Pbft_instance)
module B_zyz = Builder.Make (Rcc_zyzzyva.Zyzzyva_instance)
module B_hs = Builder.Make (Rcc_hotstuff.Hotstuff_replica)
module B_cft = Builder.Make (Rcc_cft.Cft_instance)

type replicas =
  | R_pbft of B_pbft.t array
  | R_zyz of B_zyz.t array
  | R_hs of B_hs.t array
  | R_cft of B_cft.t array

type t = {
  cfg : Config.t;
  engine : Engine.t;
  net : Msg.t Net.t;
  keychain : Rcc_crypto.Keychain.t;
  metrics : Metrics.t;
  replicas : replicas;
  pool : Client_pool.t;
  machines : int;
  (* Persistent per-replica disks: they outlive builder incarnations, so
     a restart-from-disk recovers from what the previous incarnation
     flushed. Empty-of-content but always allocated (allocation costs no
     engine events, so digests are unaffected). *)
  disks : Sim_disk.t array;
  mk_cfg : Rcc_common.Ids.replica_id -> Builder.config;
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

let ledger t r =
  match t.replicas with
  | R_pbft a -> B_pbft.ledger a.(r)
  | R_zyz a -> B_zyz.ledger a.(r)
  | R_hs a -> B_hs.ledger a.(r)
  | R_cft a -> B_cft.ledger a.(r)

let store t r =
  match t.replicas with
  | R_pbft a -> B_pbft.store a.(r)
  | R_zyz a -> B_zyz.store a.(r)
  | R_hs a -> B_hs.store a.(r)
  | R_cft a -> B_cft.store a.(r)

let txn_table t r =
  match t.replicas with
  | R_pbft a -> B_pbft.txn_table a.(r)
  | R_zyz a -> B_zyz.txn_table a.(r)
  | R_hs a -> B_hs.txn_table a.(r)
  | R_cft a -> B_cft.txn_table a.(r)

let primary_lookup protocol replicas x =
  match protocol with
  | Config.Hotstuff -> x
  | Config.Pbft | Config.Zyzzyva | Config.MultiP | Config.MultiZ | Config.Cft
  | Config.MultiC -> (
      match replicas with
      | R_pbft a -> B_pbft.current_primary a.(0) x
      | R_zyz a -> B_zyz.current_primary a.(0) x
      | R_hs a -> B_hs.current_primary a.(0) x
      | R_cft a -> B_cft.current_primary a.(0) x)

let primary_of_instance t x = primary_lookup t.cfg.Config.protocol t.replicas x

let coordinator_of t r =
  match t.replicas with
  | R_pbft a -> B_pbft.coordinator a.(r)
  | R_zyz a -> B_zyz.coordinator a.(r)
  | R_hs a -> B_hs.coordinator a.(r)
  | R_cft a -> B_cft.coordinator a.(r)

let replacements_of t r =
  match coordinator_of t r with
  | Some c -> Rcc_core.Coordinator.replacements c
  | None -> 0

let replacements t = replacements_of t 0

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
  (match t.replicas with
  | R_pbft a -> Array.iter (fun r -> add (B_pbft.transfer_stats r)) a
  | R_zyz a -> Array.iter (fun r -> add (B_zyz.transfer_stats r)) a
  | R_hs a -> Array.iter (fun r -> add (B_hs.transfer_stats r)) a
  | R_cft a -> Array.iter (fun r -> add (B_cft.transfer_stats r)) a);
  !acc

(* Replica 0's slot-log footprint for instance [x]: how tightly the
   checkpoint GC is bounding consensus memory. *)
let log_stats t x =
  match t.replicas with
  | R_pbft a -> B_pbft.log_stats a.(0) x
  | R_zyz a -> B_zyz.log_stats a.(0) x
  | R_hs a -> B_hs.log_stats a.(0) x
  | R_cft a -> B_cft.log_stats a.(0) x

let exec_of t r =
  match t.replicas with
  | R_pbft a -> B_pbft.exec a.(r)
  | R_zyz a -> B_zyz.exec a.(r)
  | R_hs a -> B_hs.exec a.(r)
  | R_cft a -> B_cft.exec a.(r)

let boundaries t r = Rcc_replica.Exec.boundaries (exec_of t r)

let net t = t.net

let byz_spec t r =
  match t.replicas with
  | R_pbft a -> (B_pbft.config a.(r)).Builder.byz
  | R_zyz a -> (B_zyz.config a.(r)).Builder.byz
  | R_hs a -> (B_hs.config a.(r)).Builder.byz
  | R_cft a -> (B_cft.config a.(r)).Builder.byz

(* --- restart-from-disk ---------------------------------------------------- *)

(* Replace replica [r] with a fresh incarnation recovered from its
   persistent disk: halt the orphan (drops deliveries, suppresses queued
   sends, loses un-flushed journal records), build a successor over the
   same disk — [create] re-registers the net handler, displacing the
   orphan's — run journal recovery, then start it. Distinct from a
   nemesis [Restart]: that revives the same in-memory incarnation; this
   one trusts nothing but the disk. *)
let restart_from_disk t r =
  let recov =
    match t.replicas with
    | R_pbft a ->
        B_pbft.halt a.(r);
        let b =
          B_pbft.create ~engine:t.engine ~net:t.net ~keychain:t.keychain
            ~metrics:t.metrics (t.mk_cfg r)
        in
        let recov = B_pbft.restore b in
        a.(r) <- b;
        B_pbft.start b;
        recov
    | R_zyz a ->
        B_zyz.halt a.(r);
        let b =
          B_zyz.create ~engine:t.engine ~net:t.net ~keychain:t.keychain
            ~metrics:t.metrics (t.mk_cfg r)
        in
        let recov = B_zyz.restore b in
        a.(r) <- b;
        B_zyz.start b;
        recov
    | R_hs a ->
        B_hs.halt a.(r);
        let b =
          B_hs.create ~engine:t.engine ~net:t.net ~keychain:t.keychain
            ~metrics:t.metrics (t.mk_cfg r)
        in
        let recov = B_hs.restore b in
        a.(r) <- b;
        B_hs.start b;
        recov
    | R_cft a ->
        B_cft.halt a.(r);
        let b =
          B_cft.create ~engine:t.engine ~net:t.net ~keychain:t.keychain
            ~metrics:t.metrics (t.mk_cfg r)
        in
        let recov = B_cft.restore b in
        a.(r) <- b;
        B_cft.start b;
        recov
  in
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

let journal_of t r =
  match t.replicas with
  | R_pbft a -> B_pbft.journal a.(r)
  | R_zyz a -> B_zyz.journal a.(r)
  | R_hs a -> B_hs.journal a.(r)
  | R_cft a -> B_cft.journal a.(r)

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
      List.init t.cfg.Config.z (fun x ->
          match t.replicas with
          | R_pbft a -> B_pbft.current_primary a.(r) x
          | R_zyz a -> B_zyz.current_primary a.(r) x
          | R_hs a -> B_hs.current_primary a.(r) x
          | R_cft a -> B_cft.current_primary a.(r) x)

let known_malicious_view t r =
  match coordinator_of t r with
  | Some c -> Rcc_core.Coordinator.known_malicious c
  | None -> []

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
          Byz.byzantine = true;
          dark =
            Some
              {
                Byz.victims = [ victim ];
                from_round = at_round;
                until_round = Some at_round;
              };
          false_blame = (if cfg.Config.z > 1 then [ 1 ] else []);
          ignore_clients = false;
          equivocate = false;
          forge_views = false;
          corrupt_snapshot = false;
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
      ~latency:cfg.Config.latency ~jitter:cfg.Config.jitter ~gbps:cfg.Config.gbps
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
      heartbeat = cfg.Config.heartbeat;
      collusion_wait = cfg.Config.collusion_wait;
      checkpoint_interval = cfg.Config.checkpoint_interval;
      unified =
        (match cfg.Config.protocol with
        | Config.MultiP | Config.MultiZ | Config.MultiC -> true
        | Config.Pbft | Config.Zyzzyva | Config.Hotstuff | Config.Cft -> false);
      recovery = cfg.Config.recovery;
      min_cert =
        (match cfg.Config.protocol with
        | Config.MultiZ -> 2 (* speculative accept proofs *)
        | Config.Cft | Config.MultiC -> (cfg.Config.n / 2) + 1
        | Config.Pbft | Config.Zyzzyva | Config.Hotstuff | Config.MultiP ->
            cfg.Config.n - (2 * cfg.Config.f));
      history_capacity = cfg.Config.history_capacity;
      use_permutation = cfg.Config.use_permutation;
      exec_on_worker = (cfg.Config.protocol = Config.Zyzzyva);
      sign_speculative = (cfg.Config.protocol = Config.Zyzzyva);
      records = cfg.Config.records;
      materialize_state = (self = 0 || cfg.Config.n <= 8);
      parallel_exec = (cfg.Config.exec_mode = Config.Exec_parallel);
      exec_threads = cfg.Config.exec_threads;
      exec_window = cfg.Config.exec_window;
      input_threads = 3;
      batch_threads = 2;
      client_node_of;
      byz = byz_of cfg self;
      journal =
        (if cfg.Config.journal then
           Some (Journal.attach ~engine ~costs ~disk:disks.(self) ~self ())
         else None);
    }
  in
  let replicas =
    match cfg.Config.protocol with
    | Config.Pbft | Config.MultiP ->
        R_pbft
          (Array.init cfg.Config.n (fun self ->
               B_pbft.create ~engine ~net ~keychain ~metrics (builder_cfg self)))
    | Config.Zyzzyva | Config.MultiZ ->
        R_zyz
          (Array.init cfg.Config.n (fun self ->
               B_zyz.create ~engine ~net ~keychain ~metrics (builder_cfg self)))
    | Config.Hotstuff ->
        R_hs
          (Array.init cfg.Config.n (fun self ->
               B_hs.create ~engine ~net ~keychain ~metrics (builder_cfg self)))
    | Config.Cft | Config.MultiC ->
        R_cft
          (Array.init cfg.Config.n (fun self ->
               B_cft.create ~engine ~net ~keychain ~metrics (builder_cfg self)))
  in
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
    mk_cfg = builder_cfg;
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
  (match t.replicas with
  | R_pbft a -> Array.iter B_pbft.start a
  | R_zyz a -> Array.iter B_zyz.start a
  | R_hs a -> Array.iter B_hs.start a
  | R_cft a -> Array.iter B_cft.start a);
  Client_pool.start t.pool;
  Engine.run t.engine ~until:t.cfg.Config.duration;
  let ledger0 = ledger t 0 in
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
    ledger_rounds = Rcc_storage.Ledger.length ledger0;
    ledger_valid =
      (match Rcc_storage.Ledger.validate ledger0 with
      | Ok () -> true
      | Error _ -> false);
    exec_utilization =
      (match t.replicas with
      | R_pbft a -> B_pbft.exec_utilization a.(0) ~since:0
      | R_zyz a -> B_zyz.exec_utilization a.(0) ~since:0
      | R_hs a -> B_hs.exec_utilization a.(0) ~since:0
      | R_cft a -> B_cft.exec_utilization a.(0) ~since:0);
    exec_pool_utilization =
      Option.value ~default:0.0
        (match t.replicas with
        | R_pbft a -> B_pbft.exec_pool_utilization a.(0) ~since:0
        | R_zyz a -> B_zyz.exec_pool_utilization a.(0) ~since:0
        | R_hs a -> B_hs.exec_pool_utilization a.(0) ~since:0
        | R_cft a -> B_cft.exec_pool_utilization a.(0) ~since:0);
    worker_utilization =
      (match t.replicas with
      | R_pbft a -> B_pbft.worker_utilization a.(0) 0 ~since:0
      | R_zyz a -> B_zyz.worker_utilization a.(0) 0 ~since:0
      | R_hs a -> B_hs.worker_utilization a.(0) 0 ~since:0
      | R_cft a -> B_cft.worker_utilization a.(0) 0 ~since:0);
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
      (let replied_retained = Rcc_replica.Exec.replied_retained (exec_of t 0) in
      Array.init (Metrics.instances t.metrics) (fun x ->
          let i_retained_slots, i_live_words =
            if x < t.cfg.Config.z then log_stats t x else (0, 0)
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
            i_live_words;
            i_replied_retained =
              (if x < Array.length replied_retained then replied_retained.(x)
               else 0);
            i_rolled_back_rounds =
              Metrics.instance_rolled_back_rounds t.metrics x;
            i_rolled_back_txns = Metrics.instance_rolled_back_txns t.metrics x;
          }));
  }

let run_config ?tracer cfg = run (build ?tracer cfg)
