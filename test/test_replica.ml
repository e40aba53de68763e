(* Replica-layer tests: the execute thread's round lockstep, metrics,
   closed-loop client behaviour, byzantine behaviour specs. *)

module Engine = Rcc_sim.Engine
module Cpu = Rcc_sim.Cpu
module Net = Rcc_sim.Net
module Exec = Rcc_replica.Exec
module Metrics = Rcc_replica.Metrics
module Client_pool = Rcc_replica.Client_pool
module Byz = Rcc_replica.Byz
module Msg = Rcc_messages.Msg
module Batch = Rcc_messages.Batch

let check = Alcotest.check

let rng = Rcc_common.Rng.create 404
let secret, _ = Rcc_crypto.Signature.keygen rng

let batch ?(client = 0) id =
  Batch.create ~id ~client
    ~txns:[| Rcc_workload.Txn.{ key = id; op = Write id } |]
    ~secret

let acceptance ?(speculative = false) ~instance ~round id =
  {
    Rcc_replica.Acceptance.instance;
    round;
    batch = batch id;
    cert = [ 0; 1; 2 ];
    speculative;
    history = "";
  }

(* --- exec ------------------------------------------------------------------ *)

type exec_fixture = {
  engine : Engine.t;
  exec : Exec.t;
  responses : (int * Msg.t) list ref;  (* (client, response) *)
  executed : int list ref;  (* rounds in execution order *)
  store : Rcc_storage.Kv_store.t;
  ledger : Rcc_storage.Ledger.t;
}

let make_exec ?(z = 2) ?reorder () =
  let engine = Engine.create () in
  let store = Rcc_storage.Kv_store.create () in
  let ledger = Rcc_storage.Ledger.create ~primaries:(List.init z (fun x -> x)) in
  let txn_table = Rcc_storage.Txn_table.create ~z in
  let responses = ref [] in
  let executed = ref [] in
  let exec =
    Exec.create ~engine ~costs:Rcc_sim.Costs.default
      ~server:(Cpu.server engine ~name:"exec" ()) ~z ~self:0 ~store ~ledger
      ~txn_table
      ~current_primaries:(fun () -> List.init z (fun x -> x))
      ~respond:(fun client msg -> responses := (client, msg) :: !responses)
      ~metrics:(Metrics.create ~n:1 ~warmup:0 ())
      ?reorder
      ~on_executed:(fun round -> executed := round :: !executed)
      ()
  in
  { engine; exec; responses; executed; store; ledger }

let test_exec_waits_for_all_instances () =
  let fx = make_exec () in
  Exec.notify fx.exec (acceptance ~instance:0 ~round:0 1);
  Engine.run fx.engine ~until:(Engine.ms 10);
  check Alcotest.int "round incomplete, nothing executed" 0
    (Exec.executed_rounds fx.exec);
  check Alcotest.(list int) "instance 1 missing" [ 1 ]
    (Exec.missing_instances fx.exec ~round:0);
  Exec.notify fx.exec (acceptance ~instance:1 ~round:0 2);
  Engine.run fx.engine ~until:(Engine.ms 20);
  check Alcotest.int "round executed" 1 (Exec.executed_rounds fx.exec);
  check Alcotest.int "ledger grew" 1 (Rcc_storage.Ledger.length fx.ledger);
  check Alcotest.int "both clients answered" 2 (List.length !(fx.responses))

let test_exec_rounds_in_order () =
  let fx = make_exec () in
  (* Round 1 completes before round 0; execution must still be 0 then 1. *)
  Exec.notify fx.exec (acceptance ~instance:0 ~round:1 10);
  Exec.notify fx.exec (acceptance ~instance:1 ~round:1 11);
  Engine.run fx.engine ~until:(Engine.ms 10);
  check Alcotest.int "future round buffered" 0 (Exec.executed_rounds fx.exec);
  check Alcotest.int "max pending" 1 (Exec.max_pending_round fx.exec);
  Exec.notify fx.exec (acceptance ~instance:0 ~round:0 20);
  Exec.notify fx.exec (acceptance ~instance:1 ~round:0 21);
  Engine.run fx.engine ~until:(Engine.ms 20);
  check Alcotest.(list int) "in round order" [ 0; 1 ] (List.rev !(fx.executed));
  check Alcotest.bool "ledger validates" true
    (Result.is_ok (Rcc_storage.Ledger.validate fx.ledger))

let test_exec_duplicate_notify_ignored () =
  let fx = make_exec () in
  Exec.notify fx.exec (acceptance ~instance:0 ~round:0 1);
  Exec.notify fx.exec (acceptance ~instance:0 ~round:0 99);
  Exec.notify fx.exec (acceptance ~instance:1 ~round:0 2);
  Engine.run fx.engine ~until:(Engine.ms 20);
  check Alcotest.int "executed once" 1 (Exec.executed_rounds fx.exec);
  (* The first notification wins. *)
  let ids =
    List.filter_map
      (fun (_, msg) ->
        match msg with Msg.Response { batch_id; _ } -> Some batch_id | _ -> None)
      !(fx.responses)
  in
  check Alcotest.bool "batch 1 executed, not 99" true
    (List.mem 1 ids && not (List.mem 99 ids))

let test_exec_null_batches_get_no_response () =
  let fx = make_exec () in
  Exec.notify fx.exec
    {
      Rcc_replica.Acceptance.instance = 0;
      round = 0;
      batch = Batch.null ~round:0;
      cert = [];
      speculative = false;
      history = "";
    };
  Exec.notify fx.exec (acceptance ~instance:1 ~round:0 5);
  Engine.run fx.engine ~until:(Engine.ms 20);
  check Alcotest.int "round executed" 1 (Exec.executed_rounds fx.exec);
  check Alcotest.int "only the real batch answered" 1 (List.length !(fx.responses))

let test_exec_reorder_hook () =
  (* Reverse order: instance 1's batch writes key 7 first, then instance 0
     overwrites — so the final value reveals execution order. *)
  let write v = Rcc_workload.Txn.{ key = 7; op = Write v } in
  let acc instance v =
    {
      Rcc_replica.Acceptance.instance;
      round = 0;
      batch =
        Batch.create ~id:v ~client:instance ~txns:[| write v |] ~secret;
      cert = [];
      speculative = false;
      history = "";
    }
  in
  let reorder accs = Array.of_list (List.rev (Array.to_list accs)) in
  let fx = make_exec ~reorder () in
  Exec.notify fx.exec (acc 0 100);
  Exec.notify fx.exec (acc 1 200);
  Engine.run fx.engine ~until:(Engine.ms 20);
  check Alcotest.(option int) "instance 0 executed last under reversal"
    (Some 100)
    (Rcc_storage.Kv_store.read fx.store 7)

(* --- metrics ------------------------------------------------------------------ *)

let test_metrics_warmup_filter () =
  let m = Metrics.create ~n:2 ~warmup:(Engine.ms 100) () in
  Metrics.record_completion m ~now:(Engine.ms 50) ~ntxns:10 ~latency:(Engine.ms 1);
  check Alcotest.int "warmup excluded" 0 (Metrics.committed_txns m);
  Metrics.record_completion m ~now:(Engine.ms 150) ~ntxns:10 ~latency:(Engine.ms 2);
  check Alcotest.int "post-warmup counted" 10 (Metrics.committed_txns m);
  check Alcotest.int "batches" 1 (Metrics.committed_batches m);
  (* Throughput normalizes by the post-warmup window. *)
  let tput = Metrics.throughput m ~duration:(Engine.ms 200) in
  check (Alcotest.float 1.0) "throughput" 100.0 tput;
  check (Alcotest.float 1e-6) "latency mean" 0.002 (Metrics.avg_latency m);
  check Alcotest.bool "timeline has both buckets" true
    (Array.length (Metrics.timeline ~include_warmup:true m) >= 2)

(* Regression: the timeline series used to record warmup completions the
   scalar counters excluded, so the timeline summed to more than
   [committed_txns]. The default timeline must agree with the counters;
   the full-run view is opt-in. *)
let test_metrics_timeline_warmup_consistency () =
  let m = Metrics.create ~n:2 ~warmup:(Engine.ms 100) () in
  (* 3 warmup completions, 2 measured ones. *)
  Metrics.record_completion m ~now:(Engine.ms 10) ~ntxns:5 ~latency:(Engine.ms 1);
  Metrics.record_completion m ~now:(Engine.ms 40) ~ntxns:5 ~latency:(Engine.ms 1);
  Metrics.record_completion m ~now:(Engine.ms 90) ~ntxns:5 ~latency:(Engine.ms 1);
  Metrics.record_completion m ~now:(Engine.ms 150) ~ntxns:7 ~latency:(Engine.ms 1);
  Metrics.record_completion m ~now:(Engine.ms 250) ~ntxns:7 ~latency:(Engine.ms 1);
  let sum timeline =
    (* rates are txns/s over 100 ms buckets *)
    Array.fold_left (fun acc (_, rate) -> acc +. (rate *. 0.1)) 0.0 timeline
  in
  check (Alcotest.float 1e-6) "default timeline sums to committed_txns" 14.0
    (sum (Metrics.timeline m));
  check (Alcotest.float 1e-6) "full-run timeline adds the warmup back" 29.0
    (sum (Metrics.timeline ~include_warmup:true m));
  (* Warmup buckets are zero in the default view. *)
  let default_tl = Metrics.timeline m in
  check (Alcotest.float 1e-6) "warmup bucket empty by default" 0.0
    (snd default_tl.(0))

let test_metrics_per_instance () =
  let m = Metrics.create ~n:2 ~instances:3 ~warmup:(Engine.ms 100) () in
  check Alcotest.int "instances" 3 (Metrics.instances m);
  (* Warmup completions touch no instance counters either. *)
  Metrics.record_completion ~instance:0 m ~now:(Engine.ms 50) ~ntxns:9
    ~latency:(Engine.ms 1);
  check Alcotest.int "warmup excluded per instance" 0 (Metrics.instance_txns m 0);
  Metrics.record_completion ~instance:0 m ~now:(Engine.ms 150) ~ntxns:10
    ~latency:(Engine.ms 2);
  Metrics.record_completion ~instance:2 m ~now:(Engine.ms 150) ~ntxns:30
    ~latency:(Engine.ms 4);
  Metrics.record_view_change ~instance:2 m;
  check Alcotest.int "instance 0 txns" 10 (Metrics.instance_txns m 0);
  check Alcotest.int "instance 1 idle" 0 (Metrics.instance_txns m 1);
  check Alcotest.int "instance 2 txns" 30 (Metrics.instance_txns m 2);
  check Alcotest.int "aggregate sums instances" 40 (Metrics.committed_txns m);
  check Alcotest.int "view change attributed" 1 (Metrics.instance_view_changes m 2);
  check Alcotest.int "aggregate view changes" 1 (Metrics.view_changes m);
  let tput0 = Metrics.instance_throughput m 0 ~duration:(Engine.ms 200) in
  check (Alcotest.float 1.0) "instance 0 throughput" 100.0 tput0;
  check (Alcotest.float 1e-6) "instance latency mean" 0.004
    (Metrics.instance_avg_latency m 2);
  check Alcotest.bool "instance percentile near its latency" true
    (abs_float (Metrics.instance_latency_percentile m 2 0.5 -. 0.004) < 0.0005);
  check Alcotest.bool "instance timeline populated" true
    (Array.length (Metrics.instance_timeline m 2) > 0);
  (* Out-of-range instance ids are inert on both record and read. *)
  Metrics.record_completion ~instance:7 m ~now:(Engine.ms 150) ~ntxns:1
    ~latency:(Engine.ms 1);
  Metrics.record_view_change ~instance:(-1) m;
  check Alcotest.int "out-of-range reads zero" 0 (Metrics.instance_txns m 7);
  check Alcotest.int "out-of-range still aggregates" 41 (Metrics.committed_txns m)

let test_metrics_throughput_guard () =
  (* A run no longer than the warmup window has no measurement span;
     throughput must report 0 rather than divide by <= 0. *)
  let m = Metrics.create ~n:2 ~warmup:(Engine.ms 100) () in
  Metrics.record_completion m ~now:(Engine.ms 100) ~ntxns:10
    ~latency:(Engine.ms 1);
  check (Alcotest.float 0.0) "duration = warmup" 0.0
    (Metrics.throughput m ~duration:(Engine.ms 100));
  check (Alcotest.float 0.0) "duration < warmup" 0.0
    (Metrics.throughput m ~duration:(Engine.ms 50));
  (* The boundary completion itself (now = warmup) is inside the
     measurement window. *)
  check Alcotest.int "boundary completion counted" 10
    (Metrics.committed_txns m);
  check Alcotest.bool "positive span measures" true
    (Metrics.throughput m ~duration:(Engine.ms 200) > 0.0)

let test_metrics_percentiles_and_timeline () =
  let m = Metrics.create ~n:2 ~warmup:0 () in
  for i = 1 to 100 do
    Metrics.record_completion m
      ~now:(Engine.ms (i * 10))
      ~ntxns:1 ~latency:(Engine.ms i)
  done;
  let p50 = Metrics.latency_percentile m 0.5
  and p99 = Metrics.latency_percentile m 0.99 in
  check Alcotest.bool "p50 <= p99" true (p50 <= p99);
  check Alcotest.bool "p50 near the median" true (p50 >= 0.040 && p50 <= 0.065);
  check Alcotest.bool "p99 near the tail" true (p99 >= 0.090 && p99 <= 0.105);
  let mean = Metrics.avg_latency m in
  check Alcotest.bool "mean within the latency range" true
    (mean > 0.001 && mean < 0.100);
  let timeline = Metrics.timeline m in
  check Alcotest.bool "timeline spans the run" true
    (Array.length timeline >= 9);
  Array.iter
    (fun (_, rate) -> check Alcotest.bool "rates non-negative" true (rate >= 0.0))
    timeline;
  (* Completions arrive one per 10 ms: every 100 ms bucket carries
     roughly 10 completions -> ~100 txns/s. *)
  let _, rate = timeline.(4) in
  check Alcotest.bool "mid-run bucket near 100 txns/s" true
    (rate > 50.0 && rate < 150.0)

let test_metrics_counters () =
  let m = Metrics.create ~n:2 ~warmup:0 () in
  Metrics.record_view_change m;
  Metrics.record_collusion_detected m;
  Metrics.record_contract_bytes m 1234;
  Metrics.record_exec m ~replica:1 ~now:(Engine.ms 10) ~ntxns:5;
  check Alcotest.int "view changes" 1 (Metrics.view_changes m);
  check Alcotest.int "collusions" 1 (Metrics.collusions_detected m);
  check Alcotest.int "contract bytes" 1234 (Metrics.contract_bytes m);
  check Alcotest.bool "exec timeline populated" true
    (Array.length (Metrics.exec_timeline m ~replica:1) > 0)

(* --- client pool ---------------------------------------------------------------- *)

type pool_fixture = {
  engine : Engine.t;
  net : Msg.t Net.t;
  pool : Client_pool.t;
  requests : (int * Msg.t) list ref;  (* (dst replica, request) *)
}

(* One replica node (0) that records requests; client machines after it. *)
let make_pool ?(quorum = Client_pool.Majority_fplus1) ?(n = 4)
    ?(request_timeout = Engine.ms 100) ?(clients = 2) () =
  let engine = Engine.create () in
  let machines = 1 in
  let net =
    Net.create engine ~nodes:(n + machines) ~latency:(Engine.us 10) ~jitter:0
      ~gbps:10.0 ~rng:(Rcc_common.Rng.create 3) ()
  in
  let requests = ref [] in
  for replica = 0 to n - 1 do
    Net.register net replica (fun ~src:_ ~size:_ msg ->
        requests := (replica, msg) :: !requests)
  done;
  let keychain = Rcc_crypto.Keychain.create ~seed:8 ~n ~clients in
  let metrics = Metrics.create ~n ~warmup:0 () in
  let pool =
    Client_pool.create ~engine ~net ~keychain ~metrics
      ~primary_of_instance:(fun x -> x)
      {
        Client_pool.n;
        f = (n - 1) / 3;
        z = 2;
        clients;
        machines;
        batch_size = 5;
        quorum;
        request_timeout;
        instance_change_after = 2;
        first_node = n;
        records = 100;
        write_ratio = 0.9;
        theta = 0.5;
        seed = 5;
        arrival = Client_pool.Closed_loop;
      }
  in
  { engine; net; pool; requests }

let respond fx ~replica ~client ~batch_id ?(digest = "same")
    ?(speculative = false) ?(round = 0) ?(history = "") () =
  let msg =
    Msg.Response
      {
        client;
        batch_id;
        round;
        result_digest = digest;
        txn_count = 5;
        speculative;
        history;
      }
  in
  Net.send fx.net ~src:replica ~dst:4 ~size:(Msg.size msg) msg

let test_client_sends_to_home_primary () =
  let fx = make_pool () in
  Client_pool.start fx.pool;
  Engine.run fx.engine ~until:(Engine.ms 10);
  (* Client 0 -> instance 0 -> replica 0; client 1 -> instance 1 -> replica 1. *)
  let dsts = List.sort compare (List.map fst !(fx.requests)) in
  check Alcotest.(list int) "requests to both primaries" [ 0; 1 ] dsts

let test_client_completes_on_fplus1 () =
  let fx = make_pool () in
  Client_pool.start fx.pool;
  Engine.run fx.engine ~until:(Engine.ms 5);
  (* f+1 = 2 matching responses complete client 0's batch (id 0). *)
  respond fx ~replica:0 ~client:0 ~batch_id:0 ();
  respond fx ~replica:1 ~client:0 ~batch_id:0 ();
  Engine.run fx.engine ~until:(Engine.ms 20);
  check Alcotest.int "one batch completed" 1 (Client_pool.completed_batches fx.pool);
  (* Completion triggers the next request to the same primary. *)
  let to_replica0 = List.filter (fun (d, _) -> d = 0) !(fx.requests) in
  check Alcotest.bool "next request sent" true (List.length to_replica0 >= 2)

let test_client_mismatched_digests_dont_complete () =
  let fx = make_pool () in
  Client_pool.start fx.pool;
  Engine.run fx.engine ~until:(Engine.ms 5);
  respond fx ~replica:0 ~client:0 ~batch_id:0 ~digest:"a" ();
  respond fx ~replica:1 ~client:0 ~batch_id:0 ~digest:"b" ();
  Engine.run fx.engine ~until:(Engine.ms 20);
  check Alcotest.int "no quorum on divergent digests" 0
    (Client_pool.completed_batches fx.pool)

let test_client_timeout_resend_and_instance_change () =
  let fx = make_pool ~request_timeout:(Engine.ms 20) () in
  Client_pool.start fx.pool;
  (* No replica ever answers: clients resend, and on the second resend
     (instance_change_after = 2) defect to the other instance. *)
  Engine.run fx.engine ~until:(Engine.ms 70);
  check Alcotest.bool "instance changes recorded" true
    (Client_pool.instance_changes fx.pool > 0);
  check Alcotest.int "client 0 moved to instance 1" 1
    (Client_pool.client_instance fx.pool 0)

let test_zyzzyva_client_needs_all_n () =
  let fx = make_pool ~quorum:Client_pool.All_n_speculative () in
  Client_pool.start fx.pool;
  Engine.run fx.engine ~until:(Engine.ms 5);
  respond fx ~replica:0 ~client:0 ~batch_id:0 ~speculative:true ();
  respond fx ~replica:1 ~client:0 ~batch_id:0 ~speculative:true ();
  respond fx ~replica:2 ~client:0 ~batch_id:0 ~speculative:true ();
  Engine.run fx.engine ~until:(Engine.ms 20);
  check Alcotest.int "3 of 4 is not enough" 0 (Client_pool.completed_batches fx.pool);
  respond fx ~replica:3 ~client:0 ~batch_id:0 ~speculative:true ();
  Engine.run fx.engine ~until:(Engine.ms 40);
  check Alcotest.int "all n completes" 1 (Client_pool.completed_batches fx.pool)

let test_zyzzyva_commit_certificate_path () =
  let fx = make_pool ~quorum:Client_pool.All_n_speculative ~request_timeout:(Engine.ms 20) () in
  Client_pool.start fx.pool;
  Engine.run fx.engine ~until:(Engine.ms 5);
  (* 2f+1 = 3 matching spec responses, but never all 4: on timeout the
     client broadcasts a COMMIT-CERT. *)
  respond fx ~replica:0 ~client:0 ~batch_id:0 ();
  respond fx ~replica:1 ~client:0 ~batch_id:0 ();
  respond fx ~replica:2 ~client:0 ~batch_id:0 ();
  Engine.run fx.engine ~until:(Engine.ms 40);
  let certs =
    List.filter (fun (_, m) -> match m with Msg.Commit_cert _ -> true | _ -> false)
      !(fx.requests)
  in
  check Alcotest.int "commit cert broadcast to all n" 4 (List.length certs);
  (* 2f+1 LOCAL-COMMIT acks finish the request. *)
  List.iter
    (fun replica ->
      let msg = Msg.Local_commit { instance = 0; seq = 0; client = 0 } in
      Net.send fx.net ~src:replica ~dst:4 ~size:(Msg.size msg) msg)
    [ 0; 1; 2 ];
  Engine.run fx.engine ~until:(Engine.ms 60);
  check Alcotest.int "completed via commit path" 1
    (Client_pool.completed_batches fx.pool)

let certs_sent fx =
  List.filter_map
    (fun (_, m) ->
      match m with
      | Msg.Commit_cert { cc_seq; cc_client; _ } -> Some (cc_seq, cc_client)
      | _ -> None)
    !(fx.requests)

let ack fx ~replica ~client ~seq =
  let msg = Msg.Local_commit { instance = 0; seq; client } in
  Net.send fx.net ~src:replica ~dst:4 ~size:(Msg.size msg) msg

let test_zyzzyva_cert_names_matching_quorum_round () =
  (* Regression: a stale speculative response that survived a rollback
     (old history, old round) arrives first. The commit certificate must
     be sequenced at the round of the quorum that actually matched, and
     must name its client — not inherit whichever response came first. *)
  let fx =
    make_pool ~quorum:Client_pool.All_n_speculative
      ~request_timeout:(Engine.ms 20) ()
  in
  Client_pool.start fx.pool;
  Engine.run fx.engine ~until:(Engine.ms 5);
  respond fx ~replica:0 ~client:0 ~batch_id:0 ~round:3 ~history:"pre-rollback"
    ();
  respond fx ~replica:1 ~client:0 ~batch_id:0 ~round:7 ~history:"h" ();
  respond fx ~replica:2 ~client:0 ~batch_id:0 ~round:7 ~history:"h" ();
  respond fx ~replica:3 ~client:0 ~batch_id:0 ~round:7 ~history:"h" ();
  Engine.run fx.engine ~until:(Engine.ms 40);
  let certs = certs_sent fx in
  check Alcotest.bool "certs broadcast" true (List.length certs > 0);
  List.iter
    (fun (seq, cl) ->
      check Alcotest.int "cert sequenced at the matching quorum's round" 7 seq;
      check Alcotest.int "cert names its client" 0 cl)
    certs

let test_zyzzyva_degraded_client_skips_timeout () =
  (* One replica never answers. The first batch pays the full request
     timeout before falling back to the commit-certificate phase; that
     timeout marks the client degraded, so subsequent batches fall back
     the moment 2f+1 responses match. A later all-n completion clears
     the flag and restores timeout-gated fallback. *)
  let fx =
    make_pool ~quorum:Client_pool.All_n_speculative
      ~request_timeout:(Engine.ms 20) ()
  in
  Client_pool.start fx.pool;
  Engine.run fx.engine ~until:(Engine.ms 5);
  (* Batch 0: 2f+1 responses, then the 20ms timeout forces the cert. *)
  respond fx ~replica:0 ~client:0 ~batch_id:0 ();
  respond fx ~replica:1 ~client:0 ~batch_id:0 ();
  respond fx ~replica:2 ~client:0 ~batch_id:0 ();
  Engine.run fx.engine ~until:(Engine.ms 30);
  check Alcotest.int "first fallback waits for the timeout" 4
    (List.length (certs_sent fx));
  List.iter (fun r -> ack fx ~replica:r ~client:0 ~seq:0) [ 0; 1; 2 ];
  Engine.run fx.engine ~until:(Engine.ms 32);
  (* Batch 2 (ids interleave with client 1): degraded now, so the cert
     goes out on the third response — well before the timer at ~52ms. *)
  respond fx ~replica:0 ~client:0 ~batch_id:2 ();
  respond fx ~replica:1 ~client:0 ~batch_id:2 ();
  respond fx ~replica:2 ~client:0 ~batch_id:2 ();
  Engine.run fx.engine ~until:(Engine.ms 35);
  check Alcotest.int "degraded client certs without waiting" 8
    (List.length (certs_sent fx));
  List.iter (fun r -> ack fx ~replica:r ~client:0 ~seq:0) [ 0; 1; 2 ];
  Engine.run fx.engine ~until:(Engine.ms 37);
  (* Batch 3 closes all-n: the cluster healed, degradation clears. The
     third response still triggers a (wasted) cert broadcast, but the
     fourth commits the fast path and un-degrades the client. *)
  List.iter
    (fun r -> respond fx ~replica:r ~client:0 ~batch_id:3 ())
    [ 0; 1; 2; 3 ];
  Engine.run fx.engine ~until:(Engine.ms 39);
  check Alcotest.int "three batches completed" 3
    (Client_pool.completed_batches fx.pool);
  (* Batch 4: 2f+1 again, but no longer degraded — no early cert. *)
  respond fx ~replica:0 ~client:0 ~batch_id:4 ();
  respond fx ~replica:1 ~client:0 ~batch_id:4 ();
  respond fx ~replica:2 ~client:0 ~batch_id:4 ();
  Engine.run fx.engine ~until:(Engine.ms 45);
  check Alcotest.int "healed client waits for the timeout again" 12
    (List.length (certs_sent fx))

(* --- instance env helpers ------------------------------------------------------- *)

let test_quorum_helpers () =
  let env n f =
    {
      Rcc_replica.Instance_env.n;
      f;
      z = 1;
      instance = 0;
      self = 0;
      engine = Engine.create ();
      costs = Rcc_sim.Costs.default;
      timeout = Engine.s 1;
      checkpoint_interval = 0;
      on_stable = (fun ~seq:_ -> ());
      send = (fun ?sign:_ ~dst:_ _ -> ());
      broadcast = (fun ?sign:_ ?exclude:_ _ -> ());
      respond = (fun _ _ -> ());
      accept = (fun _ -> ());
      report_failure = (fun ~announce:_ ~round:_ ~blamed:_ -> ());
      rollback = (fun ~frontier:_ -> ());
      null_fill = (fun ~proposed_upto:_ _ -> ());
      byz = Byz.honest;
      unified = false;
    }
  in
  check Alcotest.int "2f+1 of n=4" 3
    (Rcc_replica.Instance_env.quorum_2f1 (env 4 1));
  check Alcotest.int "2f+1 of n=32" 21
    (Rcc_replica.Instance_env.quorum_2f1 (env 32 10));
  check Alcotest.int "f+1 of n=32" 11
    (Rcc_replica.Instance_env.majority_nf (env 32 10))

(* --- byz specs -------------------------------------------------------------------- *)

let test_byz_excludes () =
  let spec = Byz.dark_primary ~victims:[ 3; 5 ] ~from_round:10 ~until_round:12 () in
  check Alcotest.bool "before window" false (Byz.excludes spec ~round:9 3);
  check Alcotest.bool "in window" true (Byz.excludes spec ~round:11 3);
  check Alcotest.bool "after window" false (Byz.excludes spec ~round:13 3);
  check Alcotest.bool "non-victim" false (Byz.excludes spec ~round:11 4);
  let forever = Byz.dark_primary ~victims:[ 1 ] () in
  check Alcotest.bool "open-ended window" true (Byz.excludes forever ~round:1_000_000 1);
  check Alcotest.bool "honest excludes nobody" false (Byz.excludes Byz.honest ~round:0 0)

(* An equivocating primary proposes conflicting batches to the two halves
   of the backups (§6). Neither half can assemble 2f+1 matching PREPAREs
   for its half's batch, so in the equivocator's view nobody accepts: the
   slot stalls, the primary gets blamed and deposed, and any eventual
   acceptance (the new primary re-proposing a logged batch) is the same
   on every honest replica. *)
module HP = Harness.Make (Rcc_pbft.Pbft_instance)

let test_equivocate_rejected () =
  let byz self = if self = 0 then Byz.equivocator else Byz.honest in
  let t = HP.create ~n:4 ~byz () in
  HP.submit t ~replica:0 (Harness.make_batch 7);
  (* Before any view change can fire, neither conflicting batch reaches
     the 2f+1 PREPAREs needed for acceptance. *)
  HP.run t 0.1;
  for r = 1 to 3 do
    check
      Alcotest.(option int)
      (Printf.sprintf "replica %d accepts neither conflicting batch" r)
      None
      (HP.accepted_batch_id t ~replica:r ~round:0)
  done;
  (* Let the timeout machinery depose the equivocator. *)
  HP.run t 0.5;
  check Alcotest.bool "honest replicas blame the equivocator" true
    (List.exists (fun (_, blamed) -> blamed = 0) (HP.node t 1).HP.failures);
  let accepted =
    List.filter_map
      (fun r -> HP.accepted_batch_id t ~replica:r ~round:0)
      [ 1; 2; 3 ]
  in
  check Alcotest.int "honest replicas never split" 1
    (List.length (List.sort_uniq compare accepted))

let test_false_blame_no_spurious_replacement () =
  (* Figure 12's false-alarm attack: replica 3 piggybacks an accusation
     of the healthy primary 1 on a genuine view change (crash of primary
     0). A single accuser is short of the f+1 quorum, so instance 1 must
     keep its primary. *)
  let cfg =
    Rcc_runtime.Config.make ~protocol:Rcc_runtime.Config.MultiP ~n:4
      ~batch_size:10 ~clients:24 ~records:5_000
      ~duration:(Engine.of_seconds 1.2)
      ~warmup:(Engine.of_seconds 0.3) ~replica_timeout:(Engine.ms 250)
      ~client_timeout:(Engine.ms 400) ~collusion_wait:(Engine.ms 150) ()
  in
  let cluster = Rcc_runtime.Cluster.build cfg in
  let script =
    Rcc_chaos.Script.
      [
        { at = Engine.ms 100; action = Byz_on (3, False_blame [ 1 ]) };
        { at = Engine.ms 300; action = Crash 0 };
        { at = Engine.ms 600; action = Restart 0 };
        { at = Engine.ms 600; action = Byz_off 3 };
      ]
  in
  let _nemesis = Rcc_chaos.Nemesis.install cluster script in
  let _report = Rcc_runtime.Cluster.run cluster in
  (* Honest survivors: 1 and 2 (0 crashed and recovered, 3 is byzantine). *)
  List.iter
    (fun r ->
      match Rcc_runtime.Cluster.primaries_view cluster r with
      | _ :: p1 :: _ ->
          check Alcotest.int
            (Printf.sprintf "replica %d keeps instance 1's primary" r)
            1 p1
      | short ->
          Alcotest.failf "replica %d tracks %d primaries" r (List.length short))
    [ 1; 2 ]

let suite =
  ( "replica",
    [
      Alcotest.test_case "exec waits for all z" `Quick test_exec_waits_for_all_instances;
      Alcotest.test_case "exec round order" `Quick test_exec_rounds_in_order;
      Alcotest.test_case "exec duplicate notify" `Quick test_exec_duplicate_notify_ignored;
      Alcotest.test_case "exec null batch" `Quick test_exec_null_batches_get_no_response;
      Alcotest.test_case "exec reorder hook" `Quick test_exec_reorder_hook;
      Alcotest.test_case "metrics warmup" `Quick test_metrics_warmup_filter;
      Alcotest.test_case "metrics throughput guard" `Quick
        test_metrics_throughput_guard;
      Alcotest.test_case "metrics percentiles/timeline" `Quick
        test_metrics_percentiles_and_timeline;
      Alcotest.test_case "metrics counters" `Quick test_metrics_counters;
      Alcotest.test_case "metrics timeline warmup consistency" `Quick
        test_metrics_timeline_warmup_consistency;
      Alcotest.test_case "metrics per instance" `Quick test_metrics_per_instance;
      Alcotest.test_case "client home primary" `Quick test_client_sends_to_home_primary;
      Alcotest.test_case "client f+1 quorum" `Quick test_client_completes_on_fplus1;
      Alcotest.test_case "client digest mismatch" `Quick test_client_mismatched_digests_dont_complete;
      Alcotest.test_case "client timeout/instance change" `Quick
        test_client_timeout_resend_and_instance_change;
      Alcotest.test_case "zyzzyva client all n" `Quick test_zyzzyva_client_needs_all_n;
      Alcotest.test_case "zyzzyva commit path" `Quick test_zyzzyva_commit_certificate_path;
      Alcotest.test_case "zyzzyva cert round/client" `Quick
        test_zyzzyva_cert_names_matching_quorum_round;
      Alcotest.test_case "zyzzyva degraded fallback" `Quick
        test_zyzzyva_degraded_client_skips_timeout;
      Alcotest.test_case "quorum helpers" `Quick test_quorum_helpers;
      Alcotest.test_case "byz excludes" `Quick test_byz_excludes;
      Alcotest.test_case "equivocation rejected" `Quick test_equivocate_rejected;
      Alcotest.test_case "false blame no replacement" `Slow
        test_false_blame_no_spurious_replacement;
    ] )
