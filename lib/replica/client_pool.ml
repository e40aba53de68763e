module Engine = Rcc_sim.Engine
module Net = Rcc_sim.Net
module Msg = Rcc_messages.Msg
module Batch = Rcc_messages.Batch
module Bitset = Rcc_common.Bitset

type quorum = Majority_fplus1 | All_n_speculative
type arrival_process = Poisson | Uniform

type arrival =
  | Closed_loop
  | Open_loop of {
      rate : float;  (* offered load, txn/s across the whole pool *)
      process : arrival_process;
      max_in_flight : int;  (* concurrent outstanding requests; <= 0 = #clients *)
    }

type config = {
  n : int;
  f : int;
  z : int;
  clients : int;
  machines : int;
  batch_size : int;
  quorum : quorum;
  request_timeout : Rcc_sim.Engine.time;
  instance_change_after : int;
  first_node : int;
  records : int;
  write_ratio : float;
  theta : float;
  seed : int;
  arrival : arrival;
}

type open_loop_stats = {
  offered_batches : int;
  injected_batches : int;
  dropped_batches : int;
  queue_p50 : float;
  queue_p99 : float;
  max_depth : int;
}

(* Open-loop machinery, absent in closed-loop runs so their event
   schedule — and thus the perf-digest gate — is untouched. *)
type open_loop = {
  ol_process : arrival_process;
  ol_cap : int;
  ol_gap : float;  (* mean inter-arrival gap, simulated ns per request *)
  ol_rng : Rcc_common.Rng.t;
  (* FIFO ring of idle client ids: arrivals pick the longest-idle client,
     completions append, so load rotates round-robin over the pool. *)
  idle : int array;
  mutable idle_head : int;
  mutable idle_len : int;
  mutable in_flight : int;
  mutable offered : int;
  mutable injected : int;
  mutable dropped : int;
  queue_depths : Rcc_common.Stats.Histogram.t;
  mutable max_depth : int;
}

(* Per-client state lives in parallel arrays (struct-of-arrays), not one
   heap record per client: at 1M clients the pool's resident footprint is
   a handful of words per client, and idle clients touch nothing but
   their array slots. The outstanding request lives in the [out_*]
   columns; the [gen] counter (bumped per issued request) is what
   timeout events carry and re-check on fire. *)
type t = {
  engine : Engine.t;
  net : Msg.t Net.t;
  metrics : Metrics.t;
  cfg : config;
  primary_of_instance : Rcc_common.Ids.instance_id -> Rcc_common.Ids.replica_id;
  keychain : Rcc_crypto.Keychain.t;
  gens : Rcc_workload.Ycsb.t array;  (* one workload stream per machine *)
  instance : int array;
  resends : int array;
  gen : int array;
  degraded : Bytes.t;
      (* All_n_speculative only: a timeout fired while a 2f+1-strong
         response set was already in hand, i.e. some replica is down or
         cut off and the all-n fast path cannot complete. While set, the
         commit-certificate phase starts as soon as 2f+1 matching
         responses arrive instead of waiting out the timer each batch —
         otherwise one dead replica stalls every client to timeout speed.
         Cleared by the next full-speculative completion. *)
  out_batch : Batch.t option array;  (* None = idle *)
  out_sent_at : int array;
  (* response-digest key -> (replicas that sent it, round they reported).
     The round rides with its key: a stale speculative response that
     survived a view change carries a pre-rollback history (its own key),
     and the commit certificate must name the round of the quorum that
     actually matched — not whichever response happened to arrive
     first. *)
  out_responses : (string * Bitset.t * int) list array;
  out_commit_acks : Bitset.t option array;  (* Zyzzyva commit phase *)
  ol : open_loop option;
  mutable next_batch_id : int;
  mutable completed : int;
  mutable instance_changes : int;
  mutable requests_sent : int;
  mutable stopped : bool;
}

let machine_of t c = t.cfg.first_node + (c mod t.cfg.machines)
let is_degraded t c = Bytes.unsafe_get t.degraded c <> '\000'
let set_degraded t c v =
  Bytes.unsafe_set t.degraded c (if v then '\001' else '\000')

let send_request t c (batch : Batch.t) =
  let dst = t.primary_of_instance t.instance.(c) in
  let msg = Msg.Client_request { instance = t.instance.(c); batch } in
  t.requests_sent <- t.requests_sent + 1;
  Net.send t.net ~src:(machine_of t c) ~dst ~size:(Msg.size msg) msg

(* Zyzzyva second phase: enough matching speculative responses to form a
   commit certificate — sequenced at the matching quorum's own round. *)
let begin_commit_phase t c ~key ~set ~round =
  t.out_commit_acks.(c) <- Some (Bitset.create t.cfg.n);
  let cert =
    Msg.Commit_cert
      {
        cc_instance = t.instance.(c);
        cc_seq = round;
        cc_client = c;
        cc_digest = String.sub key 0 (min 32 (String.length key));
        cc_replicas = Bitset.to_list set;
      }
  in
  let size = Msg.size cert in
  let src = machine_of t c in
  for dst = 0 to t.cfg.n - 1 do
    Net.send t.net ~src ~dst ~size cert
  done

let clear_outstanding t c =
  t.gen.(c) <- t.gen.(c) + 1;
  t.out_batch.(c) <- None;
  t.out_responses.(c) <- [];
  t.out_commit_acks.(c) <- None

(* Issue the next request for [c]; shared by both modes. The caller has
   already cleared any previous outstanding state. *)
let issue_request t c =
  let txns =
    Rcc_workload.Ycsb.batch t.gens.(c mod t.cfg.machines) ~size:t.cfg.batch_size
  in
  let id = t.next_batch_id in
  t.next_batch_id <- id + 1;
  let batch =
    Batch.create ~id ~client:c ~txns
      ~secret:(Rcc_crypto.Keychain.client_secret t.keychain c)
  in
  t.gen.(c) <- t.gen.(c) + 1;
  t.out_batch.(c) <- Some batch;
  t.out_sent_at.(c) <- Engine.now t.engine;
  t.out_responses.(c) <- [];
  t.out_commit_acks.(c) <- None;
  batch

(* --- timeouts (one engine event per request) ---------------------------- *)

(* Both modes schedule one timeout event per request and never withdraw
   it: the event carries the generation it was armed for and does
   nothing when that request has since completed or been reissued, so
   the pool keeps no per-client timer handle. *)
let rec arm_timer t c =
  let g = t.gen.(c) in
  Engine.schedule_after t.engine t.cfg.request_timeout (fun () ->
      on_timeout t c g)

and on_timeout t c g =
  if t.gen.(c) = g && not t.stopped then
    match t.out_batch.(c) with
    | None -> ()
    | Some batch -> handle_timeout t c batch

and handle_timeout t c batch =
  let cc_quorum = (2 * t.cfg.f) + 1 in
  let strong =
    List.find_opt (fun (_, set, _) -> Bitset.count set >= cc_quorum)
  in
  match (t.cfg.quorum, t.out_commit_acks.(c), strong t.out_responses.(c)) with
  | All_n_speculative, None, Some (key, set, round) ->
      (* A strong quorum was in hand yet the all-n set never closed:
         some replica is unreachable. Degrade this client so its next
         batches fall back without eating the timeout again. *)
      set_degraded t c true;
      begin_commit_phase t c ~key ~set ~round;
      arm_timer t c
  | (Majority_fplus1 | All_n_speculative), _, _ ->
      (* Resend; after enough failures, defect to another instance
         (§3.6 instance-change). *)
      t.resends.(c) <- t.resends.(c) + 1;
      if
        t.cfg.instance_change_after > 0
        && t.resends.(c) mod t.cfg.instance_change_after = 0
        && t.cfg.z > 1
      then begin
        t.instance.(c) <- (t.instance.(c) + 1) mod t.cfg.z;
        t.instance_changes <- t.instance_changes + 1;
        let notice =
          Msg.Instance_change { client = c; instance = t.instance.(c) }
        in
        Net.send t.net ~src:(machine_of t c)
          ~dst:(t.primary_of_instance t.instance.(c))
          ~size:(Msg.size notice) notice
      end;
      send_request t c batch;
      arm_timer t c

(* --- request lifecycle ------------------------------------------------- *)

let idle_push ol c =
  let cap = Array.length ol.idle in
  ol.idle.((ol.idle_head + ol.idle_len) mod cap) <- c;
  ol.idle_len <- ol.idle_len + 1

let idle_pop ol =
  let c = ol.idle.(ol.idle_head) in
  ol.idle_head <- (ol.idle_head + 1) mod Array.length ol.idle;
  ol.idle_len <- ol.idle_len - 1;
  c

let rec complete t c =
  match t.out_batch.(c) with
  | None -> ()
  | Some batch ->
      let sent_at = t.out_sent_at.(c) in
      clear_outstanding t c;
      t.resends.(c) <- 0;
      t.completed <- t.completed + 1;
      let now = Engine.now t.engine in
      Metrics.record_completion ~instance:t.instance.(c) t.metrics ~now
        ~ntxns:(Batch.txn_count batch)
        ~latency:(now - sent_at);
      (match t.ol with
      | None -> send_next t c
      | Some ol ->
          ol.in_flight <- ol.in_flight - 1;
          idle_push ol c)

and send_next t c =
  if not t.stopped then begin
    let batch = issue_request t c in
    (* A zero-delay no-op event per closed-loop request. It changes no
       modeled number, but the perf digests, the golden report pins and
       the crash-under-load gate were recorded with it in the event
       schedule; it goes when those are next re-recorded. *)
    Engine.schedule_after t.engine 0 ignore;
    send_request t c batch;
    arm_timer t c
  end

(* --- open-loop arrivals ------------------------------------------------ *)

let arrival_gap ol =
  let gap =
    match ol.ol_process with
    | Uniform -> ol.ol_gap
    | Poisson -> Rcc_common.Rng.exponential ol.ol_rng ol.ol_gap
  in
  max 1 (int_of_float gap)

let rec on_arrival t ol =
  if not t.stopped then begin
    ol.offered <- ol.offered + 1;
    let depth = ol.in_flight in
    Rcc_common.Stats.Histogram.add ol.queue_depths (float_of_int depth);
    if depth > ol.max_depth then ol.max_depth <- depth;
    if depth < ol.ol_cap && ol.idle_len > 0 then begin
      let c = idle_pop ol in
      ol.in_flight <- ol.in_flight + 1;
      ol.injected <- ol.injected + 1;
      let batch = issue_request t c in
      send_request t c batch;
      arm_timer t c
    end
    else
      (* Every client is busy (or the in-flight cap is hit): the offered
         request is shed, not queued — open-loop load does not stall the
         arrival process. *)
      ol.dropped <- ol.dropped + 1;
    Engine.schedule_after t.engine (arrival_gap ol) (fun () ->
        on_arrival t ol)
  end

(* --- replica -> client messages ---------------------------------------- *)

let handle_response t c ~src result_digest history batch_id round =
  match t.out_batch.(c) with
  | Some batch when batch_id = batch.Batch.id ->
      (* Responses keep accumulating even after the commit phase starts:
         a degraded client certs at 2f+1, but if the straggler's
         speculative response lands anyway, the full all-n set commits
         on the spot — and proves the cluster healed. *)
      let in_commit_phase = Option.is_some t.out_commit_acks.(c) in
      let key = result_digest ^ history in
      let set, set_round =
        match
          List.find_opt
            (fun (k, _, _) -> String.equal k key)
            t.out_responses.(c)
        with
        | Some (_, set, r) -> (set, r)
        | None ->
            let set = Bitset.create t.cfg.n in
            t.out_responses.(c) <- (key, set, round) :: t.out_responses.(c);
            (set, round)
      in
      if Bitset.add set src then begin
        match t.cfg.quorum with
        | Majority_fplus1 ->
            if (not in_commit_phase) && Bitset.count set >= t.cfg.f + 1 then
              complete t c
        | All_n_speculative ->
            let count = Bitset.count set in
            if count >= t.cfg.n then begin
              (* The fast path closed again: the cluster healed. *)
              set_degraded t c false;
              complete t c
            end
            else if (not in_commit_phase) && is_degraded t c
                    && count >= (2 * t.cfg.f) + 1 then
              (* Known-degraded cluster: go to the commit phase the
                 moment a strong quorum matches, at its own round. *)
              begin_commit_phase t c ~key ~set ~round:set_round
      end
  | Some _ | None -> ()

let handle_local_commit t c ~src =
  match t.out_commit_acks.(c) with
  | Some acks ->
      if Bitset.add acks src && Bitset.count acks >= (2 * t.cfg.f) + 1 then
        complete t c
  | None -> ()

(* --- assembly ---------------------------------------------------------- *)

let create ~engine ~net ~keychain ~metrics ~primary_of_instance cfg =
  let zipf = Rcc_workload.Zipf.create ~n:cfg.records ~theta:cfg.theta in
  let gens =
    Array.init cfg.machines (fun m ->
        Rcc_workload.Ycsb.create_shared ~zipf ~write_ratio:cfg.write_ratio
          ~seed:(cfg.seed + (7919 * m)))
  in
  let ol =
    match cfg.arrival with
    | Closed_loop -> None
    | Open_loop { rate; process; max_in_flight } ->
        if rate <= 0.0 then
          invalid_arg "Client_pool.create: open-loop rate must be positive";
        let cap =
          if max_in_flight <= 0 then cfg.clients
          else min max_in_flight cfg.clients
        in
        Some
          {
            ol_process = process;
            ol_cap = cap;
            ol_gap = 1e9 *. float_of_int cfg.batch_size /. rate;
            ol_rng = Rcc_common.Rng.create (cfg.seed + 7001);
            idle = Array.init cfg.clients (fun c -> c);
            idle_head = 0;
            idle_len = cfg.clients;
            in_flight = 0;
            offered = 0;
            injected = 0;
            dropped = 0;
            queue_depths = Rcc_common.Stats.Histogram.create ();
            max_depth = 0;
          }
  in
  let t =
    {
      engine;
      net;
      metrics;
      cfg;
      primary_of_instance;
      keychain;
      gens;
      instance = Array.init cfg.clients (fun c -> c mod cfg.z);
      resends = Array.make cfg.clients 0;
      gen = Array.make cfg.clients 0;
      degraded = Bytes.make cfg.clients '\000';
      out_batch = Array.make cfg.clients None;
      out_sent_at = Array.make cfg.clients 0;
      out_responses = Array.make cfg.clients [];
      out_commit_acks = Array.make cfg.clients None;
      ol;
      next_batch_id = 0;
      completed = 0;
      instance_changes = 0;
      requests_sent = 0;
      stopped = false;
    }
  in
  (* All clients of a machine share its delivery handler; dispatch on the
     client id carried in every replica->client message. *)
  for m = 0 to cfg.machines - 1 do
    Net.register net (cfg.first_node + m) (fun ~src ~size:_ msg ->
        match msg with
        | Msg.Response { client; batch_id; result_digest; history; round; _ } ->
            handle_response t client ~src result_digest history batch_id round
        | Msg.Local_commit { client; _ } -> handle_local_commit t client ~src
        | _ -> ())
  done;
  t

let start t =
  match t.ol with
  | None ->
      for c = 0 to t.cfg.clients - 1 do
        Engine.schedule_after t.engine (Engine.us (c mod 1000)) (fun () ->
            send_next t c)
      done
  | Some ol ->
      Engine.schedule_after t.engine (arrival_gap ol) (fun () ->
          on_arrival t ol)

let stop t = t.stopped <- true

let completed_batches t = t.completed
let instance_changes t = t.instance_changes
let requests_sent t = t.requests_sent
let client_instance t c = t.instance.(c)

let open_loop_stats t =
  Option.map
    (fun ol ->
      {
        offered_batches = ol.offered;
        injected_batches = ol.injected;
        dropped_batches = ol.dropped;
        queue_p50 = Rcc_common.Stats.Histogram.percentile ol.queue_depths 0.5;
        queue_p99 = Rcc_common.Stats.Histogram.percentile ol.queue_depths 0.99;
        max_depth = ol.max_depth;
      })
    t.ol
