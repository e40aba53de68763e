(* The flat-array client pool.

   Two layers of coverage:
   - Open-loop pool units: arrival accounting, drops at the in-flight
     cap, stop silencing the arrival process, timeout-driven retries
     (each at exactly its request's deadline) and the Zyzzyva
     commit-certificate fallback.
   - A QCheck parity property: closed-loop runs over the SoA pool must
     produce the same completions, instance changes, request count and
     engine event count as the frozen seed pool
     ([Legacy_client_pool]) across random small configs and responder
     behaviours. This is the in-tree twin of the perf-digest gate. *)

open Alcotest
module Engine = Rcc_sim.Engine
module Net = Rcc_sim.Net
module Msg = Rcc_messages.Msg
module Client_pool = Rcc_replica.Client_pool
module Metrics = Rcc_replica.Metrics

(* --- pool fixture ---------------------------------------------------------- *)

type fixture = {
  engine : Engine.t;
  net : Msg.t Net.t;
  pool : Client_pool.t;
  requests : (int * Msg.t) list ref;  (* (dst replica, message) *)
  deliveries : (int * Engine.time) list ref;
      (* (batch id, arrival time) of every Client_request, newest first *)
}

let make_pool ?(quorum = Client_pool.Majority_fplus1) ?(n = 4)
    ?(request_timeout = Engine.ms 100) ?(clients = 4)
    ?(arrival = Client_pool.Closed_loop) () =
  let engine = Engine.create () in
  let machines = 1 in
  let net =
    Net.create engine ~nodes:(n + machines) ~latency:(Engine.us 10) ~jitter:0
      ~gbps:10.0 ~rng:(Rcc_common.Rng.create 3) ()
  in
  let requests = ref [] and deliveries = ref [] in
  for replica = 0 to n - 1 do
    Net.register net replica (fun ~src:_ ~size:_ msg ->
        requests := (replica, msg) :: !requests;
        match msg with
        | Msg.Client_request { batch; _ } ->
            deliveries :=
              (batch.Rcc_messages.Batch.id, Engine.now engine) :: !deliveries
        | _ -> ())
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
        arrival;
      }
  in
  { engine; net; pool; requests; deliveries }

let respond fx ~n ~replica ~client ~batch_id ?(digest = "same")
    ?(speculative = false) () =
  let msg =
    Msg.Response
      {
        client;
        batch_id;
        round = 0;
        result_digest = digest;
        txn_count = 5;
        speculative;
        history = "";
      }
  in
  Net.send fx.net ~src:replica ~dst:n ~size:(Msg.size msg) msg

let client_requests fx =
  List.filter
    (fun (_, m) -> match m with Msg.Client_request _ -> true | _ -> false)
    !(fx.requests)

(* --- open-loop pool -------------------------------------------------------- *)

let open_loop ?(rate = 2000.0) ?(process = Client_pool.Uniform)
    ?(max_in_flight = 0) () =
  Client_pool.Open_loop { rate; process; max_in_flight }

let stats fx =
  match Client_pool.open_loop_stats fx.pool with
  | Some s -> s
  | None -> fail "expected open-loop stats"

let test_open_loop_arrivals_inject () =
  (* 2000 txn/s uniform at 5 txns/batch = one batch every 2.5ms, 50ms ≈
     20 arrivals over 4 idle clients; replicas answer nothing, so
     in-flight saturates and the rest drop. *)
  let fx = make_pool ~arrival:(open_loop ()) () in
  Client_pool.start fx.pool;
  Engine.run fx.engine ~until:(Engine.ms 50);
  let s = stats fx in
  check bool "arrivals offered" true (s.Client_pool.offered_batches > 10);
  check int "injected = one per idle client" 4 s.Client_pool.injected_batches;
  check int "everything else dropped"
    (s.Client_pool.offered_batches - 4)
    s.Client_pool.dropped_batches;
  check int "four requests on the wire" 4 (List.length (client_requests fx));
  check bool "max depth saw the full pool" true (s.Client_pool.max_depth >= 4)

let test_open_loop_respects_in_flight_cap () =
  let fx = make_pool ~arrival:(open_loop ~max_in_flight:2 ()) () in
  Client_pool.start fx.pool;
  Engine.run fx.engine ~until:(Engine.ms 50);
  let s = stats fx in
  check int "cap bounds injections" 2 s.Client_pool.injected_batches;
  check bool "depth never exceeds the cap" true (s.Client_pool.max_depth <= 2)

let test_open_loop_completion_frees_client () =
  let n = 4 in
  (* Slow trickle (one arrival per 10ms): answer the first request, and
     the freed client must absorb a later arrival instead of a drop. *)
  let fx = make_pool ~arrival:(open_loop ~rate:500.0 ~max_in_flight:1 ()) () in
  Client_pool.start fx.pool;
  Engine.run fx.engine ~until:(Engine.ms 15);
  (match client_requests fx with
  | (_, Msg.Client_request { batch; _ }) :: _ ->
      respond fx ~n ~replica:0 ~client:batch.Rcc_messages.Batch.client
        ~batch_id:batch.Rcc_messages.Batch.id ();
      respond fx ~n ~replica:1 ~client:batch.Rcc_messages.Batch.client
        ~batch_id:batch.Rcc_messages.Batch.id ()
  | _ -> fail "no first arrival on the wire");
  Engine.run fx.engine ~until:(Engine.ms 60);
  check int "first batch completed" 1 (Client_pool.completed_batches fx.pool);
  let s = stats fx in
  check bool "a later arrival reused the freed slot" true
    (s.Client_pool.injected_batches >= 2)

let test_open_loop_stop_silences_arrivals () =
  let fx = make_pool ~arrival:(open_loop ~rate:500.0 ()) () in
  Client_pool.start fx.pool;
  Engine.run fx.engine ~until:(Engine.ms 20);
  Client_pool.stop fx.pool;
  let sent = Client_pool.requests_sent fx.pool in
  let offered = (stats fx).Client_pool.offered_batches in
  Engine.run fx.engine ~until:(Engine.ms 400);
  check int "no requests injected after stop" sent
    (Client_pool.requests_sent fx.pool);
  check int "arrival process stopped ticking" offered
    (stats fx).Client_pool.offered_batches

let test_open_loop_wheel_retries_and_instance_change () =
  (* Nobody answers: request timeouts must resend and, after
     instance_change_after = 2 resends, defect to the other instance —
     the same policy the closed-loop engine timers implement. *)
  let fx =
    make_pool ~request_timeout:(Engine.ms 20)
      ~arrival:(open_loop ~rate:100.0 ())
      ()
  in
  Client_pool.start fx.pool;
  Engine.run fx.engine ~until:(Engine.ms 200);
  check bool "resends on the wire" true
    (Client_pool.requests_sent fx.pool
    > (stats fx).Client_pool.injected_batches);
  check bool "instance changes recorded" true
    (Client_pool.instance_changes fx.pool > 0)

let test_open_loop_resend_at_exact_deadline () =
  (* Nobody answers and the cap admits two requests, issued 3 ms apart
     (uniform, 5 txns per batch at 5000/3 txn/s). Each must be resent
     exactly request_timeout after it was sent, whatever its arrival
     instant. Sends and resends are the same size over an idle link, so
     their arrival times at the replica differ by exactly the send-time
     gap. *)
  let timeout = Engine.ms 20 in
  let fx =
    make_pool ~request_timeout:timeout
      ~arrival:(open_loop ~rate:(5000.0 /. 3.0) ~max_in_flight:2 ())
      ()
  in
  Client_pool.start fx.pool;
  Engine.run fx.engine ~until:(Engine.ms 35);
  let sends id =
    List.rev
      (List.filter_map
         (fun (b, at) -> if b = id then Some at else None)
         !(fx.deliveries))
  in
  let ids = List.sort_uniq compare (List.map fst !(fx.deliveries)) in
  check int "two requests injected" 2 (List.length ids);
  let firsts =
    List.map
      (fun id ->
        match sends id with
        | [ sent; resent ] ->
            check int
              (Printf.sprintf "batch %d resent at sent_at + timeout" id)
              (sent + timeout) resent;
            sent
        | l ->
            failf "batch %d: expected one send and one resend, got %d" id
              (List.length l))
      ids
  in
  check bool "issued at different instants" true
    (List.length (List.sort_uniq compare firsts) = 2)

let test_open_loop_commit_cert_fallback () =
  let n = 4 in
  (* Zyzzyva under open load: 2f+1 = 3 of 4 speculative responses, then a
     request timeout must broadcast the commit certificate; 2f+1
     LOCAL-COMMITs complete the batch. *)
  let fx =
    make_pool ~quorum:Client_pool.All_n_speculative
      ~request_timeout:(Engine.ms 20)
      ~arrival:(open_loop ~rate:1000.0 ~max_in_flight:1 ())
      ()
  in
  Client_pool.start fx.pool;
  Engine.run fx.engine ~until:(Engine.ms 8);
  let client, batch_id =
    match client_requests fx with
    | (_, Msg.Client_request { batch; _ }) :: _ ->
        (batch.Rcc_messages.Batch.client, batch.Rcc_messages.Batch.id)
    | _ -> fail "no first arrival on the wire"
  in
  List.iter
    (fun replica ->
      respond fx ~n ~replica ~client ~batch_id ~speculative:true ())
    [ 0; 1; 2 ];
  Engine.run fx.engine ~until:(Engine.ms 40);
  let certs =
    List.filter
      (fun (_, m) -> match m with Msg.Commit_cert _ -> true | _ -> false)
      !(fx.requests)
  in
  check int "commit cert broadcast to all n" n (List.length certs);
  List.iter
    (fun replica ->
      let msg = Msg.Local_commit { instance = 0; seq = 0; client } in
      Net.send fx.net ~src:replica ~dst:n ~size:(Msg.size msg) msg)
    [ 0; 1; 2 ];
  Engine.run fx.engine ~until:(Engine.ms 100);
  check int "completed via commit path" 1
    (Client_pool.completed_batches fx.pool)

(* --- closed-loop parity with the frozen seed pool -------------------------- *)

(* Both pools run in their own world against the same deterministic
   responder: replica [r] answers batch [id] iff
   [(id * 31 + r * 17 + salt) mod 8 < level]. Low levels starve quorums
   (exercising timeouts, resends, instance changes, the Zyzzyva
   commit-certificate fallback); high levels complete everything. *)
type responder = { salt : int; level : int; ack_level : int }

let responds rsp ~replica ~batch_id =
  ((batch_id * 31) + (replica * 17) + rsp.salt) mod 8 < rsp.level

let acks rsp ~replica ~seq = ((seq * 13) + (replica * 7) + rsp.salt) mod 8 < rsp.ack_level

type params = {
  n : int;
  clients : int;
  speculative : bool;
  timeout_ms : int;
  seed : int;
  rsp : responder;
}

(* Replica handlers shared by both worlds: respond to requests and acks
   per the responder tables, everything decided by (batch id, replica) so
   the two runs see byte-identical traffic. *)
let install_responders net ~p ~count =
  for replica = 0 to p.n - 1 do
    Net.register net replica (fun ~src ~size:_ msg ->
        match msg with
        | Msg.Client_request { batch; _ } ->
            incr count;
            for r = 0 to p.n - 1 do
              if responds p.rsp ~replica:r ~batch_id:batch.Rcc_messages.Batch.id
              then begin
                let reply =
                  Msg.Response
                    {
                      client = batch.Rcc_messages.Batch.client;
                      batch_id = batch.Rcc_messages.Batch.id;
                      round = 0;
                      result_digest = "ok";
                      txn_count = Rcc_messages.Batch.txn_count batch;
                      speculative = p.speculative;
                      history = "";
                    }
                in
                Net.send net ~src:replica ~dst:src ~size:(Msg.size reply) reply
              end
            done
        | Msg.Commit_cert cc ->
            if acks p.rsp ~replica ~seq:cc.Msg.cc_seq then begin
              let reply =
                Msg.Local_commit
                  {
                    instance = cc.Msg.cc_instance;
                    seq = cc.Msg.cc_seq;
                    client = cc.Msg.cc_client;
                  }
              in
              Net.send net ~src:replica ~dst:src ~size:(Msg.size reply) reply
            end
        | _ -> ())
  done

type outcome = {
  completed : int;
  changes : int;
  requests : int;
  events : int;
}

let world_config p =
  ( Engine.create (),
    fun engine ->
      Net.create engine ~nodes:(p.n + 1) ~latency:(Engine.us 10) ~jitter:0
        ~gbps:10.0
        ~rng:(Rcc_common.Rng.create 3)
        () )

let run_new p ~until =
  let engine, mknet = world_config p in
  let net = mknet engine in
  let count = ref 0 in
  install_responders net ~p ~count;
  let keychain = Rcc_crypto.Keychain.create ~seed:8 ~n:p.n ~clients:p.clients in
  let metrics = Metrics.create ~n:p.n ~warmup:0 () in
  let pool =
    Client_pool.create ~engine ~net ~keychain ~metrics
      ~primary_of_instance:(fun i -> i mod p.n)
      {
        Client_pool.n = p.n;
        f = (p.n - 1) / 3;
        z = 2;
        clients = p.clients;
        machines = 1;
        batch_size = 3;
        quorum =
          (if p.speculative then Client_pool.All_n_speculative
           else Client_pool.Majority_fplus1);
        request_timeout = Engine.ms p.timeout_ms;
        instance_change_after = 2;
        first_node = p.n;
        records = 100;
        write_ratio = 0.9;
        theta = 0.5;
        seed = p.seed;
        arrival = Client_pool.Closed_loop;
      }
  in
  Client_pool.start pool;
  Engine.run engine ~until;
  (* requests_sent counts sends; the wire count can lag by messages
     still in flight when the clock stops. *)
  check bool "requests_sent covers the wire" true
    (Client_pool.requests_sent pool >= !count);
  {
    completed = Client_pool.completed_batches pool;
    changes = Client_pool.instance_changes pool;
    requests = !count;
    events = Engine.events_processed engine;
  }

let run_legacy p ~until =
  let engine, mknet = world_config p in
  let net = mknet engine in
  (* The frozen pool predates [requests_sent]; both worlds count
     delivered Client_requests at the replica handlers instead. *)
  let count = ref 0 in
  install_responders net ~p ~count;
  let keychain = Rcc_crypto.Keychain.create ~seed:8 ~n:p.n ~clients:p.clients in
  let metrics = Metrics.create ~n:p.n ~warmup:0 () in
  let pool =
    Legacy_client_pool.create ~engine ~net ~keychain ~metrics
      ~primary_of_instance:(fun i -> i mod p.n)
      {
        Legacy_client_pool.n = p.n;
        f = (p.n - 1) / 3;
        z = 2;
        clients = p.clients;
        machines = 1;
        batch_size = 3;
        quorum =
          (if p.speculative then Legacy_client_pool.All_n_speculative
           else Legacy_client_pool.Majority_fplus1);
        request_timeout = Engine.ms p.timeout_ms;
        instance_change_after = 2;
        first_node = p.n;
        records = 100;
        write_ratio = 0.9;
        theta = 0.5;
        seed = p.seed;
      }
  in
  Legacy_client_pool.start pool;
  Engine.run engine ~until;
  {
    completed = Legacy_client_pool.completed_batches pool;
    changes = Legacy_client_pool.instance_changes pool;
    requests = !count;
    events = Engine.events_processed engine;
  }

let gen_params =
  QCheck2.Gen.(
    let* n = oneofl [ 4; 7 ] in
    let* clients = int_range 1 5 in
    let* speculative = bool in
    let* timeout_ms = int_range 15 60 in
    let* seed = int_range 0 1000 in
    let* salt = int_range 0 100 in
    let* level = int_range 2 8 in
    let+ ack_level = int_range 4 8 in
    { n; clients; speculative; timeout_ms; seed; rsp = { salt; level; ack_level } })

let pp_params p =
  Printf.sprintf
    "{n=%d clients=%d spec=%b timeout=%dms seed=%d salt=%d level=%d ack=%d}"
    p.n p.clients p.speculative p.timeout_ms p.seed p.rsp.salt p.rsp.level
    p.rsp.ack_level

let parity_prop p =
  let until = Engine.ms 400 in
  let a = run_new p ~until and b = run_legacy p ~until in
  if
    a.completed = b.completed && a.changes = b.changes
    && a.requests = b.requests && a.events = b.events
  then true
  else
    QCheck2.Test.fail_reportf
      "%s: new (done=%d chg=%d req=%d ev=%d) vs legacy (done=%d chg=%d req=%d \
       ev=%d)"
      (pp_params p) a.completed a.changes a.requests a.events b.completed
      b.changes b.requests b.events

let parity_test =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:30
       ~name:"closed-loop SoA pool == frozen seed pool" gen_params parity_prop)

let suite =
  ( "client_pool",
    [
      test_case "open loop: arrivals inject and drop" `Quick
        test_open_loop_arrivals_inject;
      test_case "open loop: in-flight cap" `Quick
        test_open_loop_respects_in_flight_cap;
      test_case "open loop: completion frees a client" `Quick
        test_open_loop_completion_frees_client;
      test_case "open loop: stop silences arrivals" `Quick
        test_open_loop_stop_silences_arrivals;
      test_case "open loop: wheel retries + instance change" `Quick
        test_open_loop_wheel_retries_and_instance_change;
      test_case "open loop: resend at the exact deadline" `Quick
        test_open_loop_resend_at_exact_deadline;
      test_case "open loop: commit-certificate fallback" `Quick
        test_open_loop_commit_cert_fallback;
      parity_test;
    ] )
