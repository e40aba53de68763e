(* The flat-array client pool, driven against replicas that answer only
   when a test says so.
   - Closed-loop units: each completion issues the next request, a stale
     timeout does nothing, the resend count restarts with each request
     and its instance change tells the new primary, and a Zyzzyva client
     degrades to the commit-certificate path and heals.
   - Open-loop units: arrival accounting, drops at the in-flight cap,
     stop silencing the arrival process, timeout-driven retries (each at
     exactly its request's deadline) and the commit-certificate fallback.
   The closed loop's whole event schedule is pinned by the perf digests
   (bench/simperf.digest, bench/simperf240.digest) and the golden report
   pins (test golden). *)

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

let client_requests fx =
  List.filter
    (fun (_, m) -> match m with Msg.Client_request _ -> true | _ -> false)
    !(fx.requests)

let newest_request fx =
  match client_requests fx with
  | (_, Msg.Client_request { batch; _ }) :: _ -> batch
  | _ -> fail "no request on the wire"

(* Matching replies (round 0) from [replicas] to the newest request on
   the wire. *)
let answer ?(speculative = false) fx ~n replicas =
  let b = newest_request fx in
  let msg =
    Msg.Response
      {
        client = b.Rcc_messages.Batch.client;
        batch_id = b.Rcc_messages.Batch.id;
        round = 0;
        result_digest = "same";
        txn_count = 5;
        speculative;
        history = "";
      }
  in
  List.iter
    (fun replica -> Net.send fx.net ~src:replica ~dst:n ~size:(Msg.size msg) msg)
    replicas

let delivered_ids fx = List.map fst !(fx.deliveries)

let certs fx =
  List.filter_map
    (function _, Msg.Commit_cert cc -> Some cc | _ -> None)
    !(fx.requests)

let local_commit fx ~n ~client replica =
  let msg = Msg.Local_commit { instance = 0; seq = 0; client } in
  Net.send fx.net ~src:replica ~dst:n ~size:(Msg.size msg) msg

(* --- closed-loop pool ------------------------------------------------------ *)

let test_closed_loop_next_request_and_stale_timeout () =
  let n = 4 in
  let fx = make_pool ~clients:1 ~request_timeout:(Engine.ms 20) () in
  Client_pool.start fx.pool;
  Engine.run fx.engine ~until:(Engine.ms 1);
  answer fx ~n [ 0 ];
  Engine.run fx.engine ~until:(Engine.ms 2);
  check int "f replies are not enough" 0 (Client_pool.completed_batches fx.pool);
  answer fx ~n [ 1 ];
  Engine.run fx.engine ~until:(Engine.ms 3);
  check int "f + 1 matching replies complete" 1
    (Client_pool.completed_batches fx.pool);
  check (list int) "the next request follows the completion" [ 1; 0 ]
    (delivered_ids fx);
  (* Batch 0's timeout fires at 20 ms with batch 1 outstanding; batch
     1's own deadline is just past 22 ms. *)
  Engine.run fx.engine ~until:(Engine.ms 22);
  check (list int) "a stale timeout resends nothing" [ 1; 0 ] (delivered_ids fx);
  Engine.run fx.engine ~until:(Engine.ms 23);
  check (list int) "batch 1 resent at its own deadline" [ 1; 1; 0 ]
    (delivered_ids fx)

let test_closed_loop_instance_change () =
  let n = 4 in
  let fx = make_pool ~clients:1 ~request_timeout:(Engine.ms 20) () in
  Client_pool.start fx.pool;
  (* Batch 0 is resent once (20 ms), then completes. *)
  Engine.run fx.engine ~until:(Engine.ms 25);
  answer fx ~n [ 0; 1 ];
  Engine.run fx.engine ~until:(Engine.ms 26);
  check int "batch 0 completed" 1 (Client_pool.completed_batches fx.pool);
  (* Batch 1 (sent at 25 ms) is resent at 45 ms: its first resend, not
     the client's second, so no instance change yet. *)
  Engine.run fx.engine ~until:(Engine.ms 50);
  check int "resend count restarts with each request" 0
    (Client_pool.instance_changes fx.pool);
  (* The second resend (65 ms) defects to instance 1 (instance_change_after
     = 2) and tells instance 1's primary, replica 1. *)
  Engine.run fx.engine ~until:(Engine.ms 70);
  check int "instance change after two resends" 1
    (Client_pool.instance_changes fx.pool);
  check int "client on instance 1" 1 (Client_pool.client_instance fx.pool 0);
  let notices =
    List.filter_map
      (function
        | dst, Msg.Instance_change { client; instance } ->
            Some (dst, client, instance)
        | _ -> None)
      !(fx.requests)
  in
  check (list (triple int int int)) "notice to the new primary" [ (1, 0, 1) ]
    notices;
  check int "resend to the new primary" 1 (fst (List.hd (client_requests fx)))

let test_closed_loop_degraded_client () =
  let n = 4 in
  let fx =
    make_pool ~quorum:Client_pool.All_n_speculative ~clients:1
      ~request_timeout:(Engine.ms 20) ()
  in
  let certs () = certs fx and local_commit = local_commit fx ~n ~client:0 in
  Client_pool.start fx.pool;
  (* Batch 0: 2f + 1 = 3 of 4 speculative replies, then the timeout
     degrades the client and broadcasts a commit certificate. *)
  Engine.run fx.engine ~until:(Engine.ms 1);
  answer ~speculative:true fx ~n [ 0; 1; 2 ];
  Engine.run fx.engine ~until:(Engine.ms 19);
  check int "no certificate before the timeout" 0 (List.length (certs ()));
  Engine.run fx.engine ~until:(Engine.ms 21);
  check int "certificate to all n" n (List.length (certs ()));
  List.iter
    (fun cc ->
      check int "certificate at the replies' round" 0 cc.Msg.cc_seq;
      check (list int) "certificate names the quorum" [ 0; 1; 2 ]
        cc.Msg.cc_replicas)
    (certs ());
  local_commit 0;
  local_commit 1;
  Engine.run fx.engine ~until:(Engine.ms 22);
  check int "2f acks are not enough" 0 (Client_pool.completed_batches fx.pool);
  local_commit 2;
  Engine.run fx.engine ~until:(Engine.ms 23);
  check int "2f + 1 acks complete" 1 (Client_pool.completed_batches fx.pool);
  (* Batch 1, degraded: the certificate goes out at 2f + 1 replies,
     without waiting for the timeout. *)
  answer ~speculative:true fx ~n [ 0; 1; 2 ];
  Engine.run fx.engine ~until:(Engine.ms 24);
  check int "degraded: certificate at once" (2 * n) (List.length (certs ()));
  (* The straggler's reply closes the all-n set: complete, and healed. *)
  answer ~speculative:true fx ~n [ 3 ];
  Engine.run fx.engine ~until:(Engine.ms 25);
  check int "all n replies complete" 2 (Client_pool.completed_batches fx.pool);
  (* Batch 2, healed: 2f + 1 replies wait for the rest again. *)
  answer ~speculative:true fx ~n [ 0; 1; 2 ];
  Engine.run fx.engine ~until:(Engine.ms 30);
  check int "healed: no early certificate" (2 * n) (List.length (certs ()))

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
  answer fx ~n [ 0; 1 ];
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
     the same policy as the closed loop. *)
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
  let client = (newest_request fx).Rcc_messages.Batch.client in
  answer ~speculative:true fx ~n [ 0; 1; 2 ];
  Engine.run fx.engine ~until:(Engine.ms 40);
  check int "commit cert broadcast to all n" n (List.length (certs fx));
  List.iter (local_commit fx ~n ~client) [ 0; 1; 2 ];
  Engine.run fx.engine ~until:(Engine.ms 100);
  check int "completed via commit path" 1
    (Client_pool.completed_batches fx.pool)

let suite =
  ( "client_pool",
    [
      test_case "closed loop: next request, stale timeout" `Quick
        test_closed_loop_next_request_and_stale_timeout;
      test_case "closed loop: resends and instance change" `Quick
        test_closed_loop_instance_change;
      test_case "closed loop: degraded client heals" `Quick
        test_closed_loop_degraded_client;
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
    ] )
