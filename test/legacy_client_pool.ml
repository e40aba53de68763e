(* Verbatim copy of the seed (pre-SoA) client pool, kept as the reference
   implementation for the QCheck parity property in test_client_pool.ml:
   closed-loop runs over the flat-array pool must produce identical
   completion/instance-change/event counts to this one. Do not "improve"
   this file — its value is being frozen. *)

module Engine = Rcc_sim.Engine
module Net = Rcc_sim.Net
module Msg = Rcc_messages.Msg
module Batch = Rcc_messages.Batch
module Bitset = Rcc_common.Bitset

type quorum = Majority_fplus1 | All_n_speculative

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
}

type outstanding = {
  batch : Batch.t;
  sent_at : Engine.time;
  (* response-digest key -> (replicas that sent it, round they reported).
     The round rides with its key: a stale speculative response that
     survived a view change carries a pre-rollback history (its own key),
     and the commit certificate must name the round of the quorum that
     actually matched — not whichever response happened to arrive
     first. *)
  mutable responses : (string * Bitset.t * int) list;
  mutable commit_acks : Bitset.t option;  (* Zyzzyva commit phase *)
  mutable timer : Engine.timer;
}

type client = {
  id : Rcc_common.Ids.client_id;
  machine : int;
  secret : Rcc_crypto.Signature.secret_key;
  gen : Rcc_workload.Ycsb.t;
  mutable instance : Rcc_common.Ids.instance_id;
  mutable out : outstanding option;
  mutable resends : int;
  mutable degraded : bool;
      (* All_n_speculative only: a timeout fired while a 2f+1-strong
         response set was already in hand, i.e. some replica is down or
         cut off and the all-n fast path cannot complete. While set, the
         commit-certificate phase starts as soon as 2f+1 matching
         responses arrive instead of waiting out the timer each batch —
         otherwise one dead replica stalls every client to timeout speed.
         Cleared by the next full-speculative completion. *)
}

type t = {
  engine : Engine.t;
  net : Msg.t Net.t;
  metrics : Rcc_replica.Metrics.t;
  cfg : config;
  primary_of_instance : Rcc_common.Ids.instance_id -> Rcc_common.Ids.replica_id;
  clients : client array;
  mutable next_batch_id : int;
  mutable completed : int;
  mutable instance_changes : int;
  mutable stopped : bool;
}

let send_request t client (batch : Batch.t) =
  let dst = t.primary_of_instance client.instance in
  let msg = Msg.Client_request { instance = client.instance; batch } in
  Net.send t.net ~src:client.machine ~dst ~size:(Msg.size msg) msg

(* Zyzzyva second phase: enough matching speculative responses to form a
   commit certificate — sequenced at the matching quorum's own round. *)
let begin_commit_phase t client out ~key ~set ~round =
  out.commit_acks <- Some (Bitset.create t.cfg.n);
  let cert =
    Msg.Commit_cert
      {
        cc_instance = client.instance;
        cc_seq = round;
        cc_client = client.id;
        cc_digest = String.sub key 0 (min 32 (String.length key));
        cc_replicas = Bitset.to_list set;
      }
  in
  let size = Msg.size cert in
  for dst = 0 to t.cfg.n - 1 do
    Net.send t.net ~src:client.machine ~dst ~size cert
  done

let rec complete t client out =
  Engine.cancel out.timer;
  client.out <- None;
  client.resends <- 0;
  t.completed <- t.completed + 1;
  let now = Engine.now t.engine in
  Rcc_replica.Metrics.record_completion ~instance:client.instance t.metrics ~now
    ~ntxns:(Batch.txn_count out.batch)
    ~latency:(now - out.sent_at);
  send_next t client

and arm_timer t client out =
  out.timer <-
    Engine.timer_after t.engine t.cfg.request_timeout (fun () ->
        on_timeout t client out)

and on_timeout t client out =
  match client.out with
  | Some current when current == out && not t.stopped -> begin
      let cc_quorum = (2 * t.cfg.f) + 1 in
      let strong =
        List.find_opt (fun (_, set, _) -> Bitset.count set >= cc_quorum)
      in
      match (t.cfg.quorum, out.commit_acks, strong out.responses) with
      | All_n_speculative, None, Some (key, set, round) ->
          (* A strong quorum was in hand yet the all-n set never closed:
             some replica is unreachable. Degrade this client so its next
             batches fall back without eating the timeout again. *)
          client.degraded <- true;
          begin_commit_phase t client out ~key ~set ~round;
          arm_timer t client out
      | (Majority_fplus1 | All_n_speculative), _, _ ->
          (* Resend; after enough failures, defect to another instance
             (§3.6 instance-change). *)
          client.resends <- client.resends + 1;
          if
            t.cfg.instance_change_after > 0
            && client.resends mod t.cfg.instance_change_after = 0
            && t.cfg.z > 1
          then begin
            client.instance <- (client.instance + 1) mod t.cfg.z;
            t.instance_changes <- t.instance_changes + 1;
            let notice =
              Msg.Instance_change { client = client.id; instance = client.instance }
            in
            Net.send t.net ~src:client.machine
              ~dst:(t.primary_of_instance client.instance)
              ~size:(Msg.size notice) notice
          end;
          send_request t client out.batch;
          arm_timer t client out
    end
  | Some _ | None -> ()

and send_next t client =
  if t.stopped then ()
  else begin
  let txns = Rcc_workload.Ycsb.batch client.gen ~size:t.cfg.batch_size in
  let id = t.next_batch_id in
  t.next_batch_id <- id + 1;
  let batch = Batch.create ~id ~client:client.id ~txns ~secret:client.secret in
  let out =
    {
      batch;
      sent_at = Engine.now t.engine;
      responses = [];
      commit_acks = None;
      timer = Engine.timer_after t.engine 0 (fun () -> ());
    }
  in
  Engine.cancel out.timer;
  client.out <- Some out;
  send_request t client batch;
  arm_timer t client out
  end

let handle_response t client_id ~src result_digest history batch_id round =
  let client = t.clients.(client_id) in
  match client.out with
  | Some out when batch_id = out.batch.Batch.id ->
      (* Responses keep accumulating even after the commit phase starts:
         a degraded client certs at 2f+1, but if the straggler's
         speculative response lands anyway, the full all-n set commits
         on the spot — and proves the cluster healed. *)
      let in_commit_phase = Option.is_some out.commit_acks in
      let key = result_digest ^ history in
      let set, set_round =
        match
          List.find_opt (fun (k, _, _) -> String.equal k key) out.responses
        with
        | Some (_, set, r) -> (set, r)
        | None ->
            let set = Bitset.create t.cfg.n in
            out.responses <- (key, set, round) :: out.responses;
            (set, round)
      in
      if Bitset.add set src then begin
        match t.cfg.quorum with
        | Majority_fplus1 ->
            if (not in_commit_phase) && Bitset.count set >= t.cfg.f + 1 then
              complete t client out
        | All_n_speculative ->
            let count = Bitset.count set in
            if count >= t.cfg.n then begin
              (* The fast path closed again: the cluster healed. *)
              client.degraded <- false;
              complete t client out
            end
            else if (not in_commit_phase) && client.degraded
                    && count >= (2 * t.cfg.f) + 1 then
              (* Known-degraded cluster: go to the commit phase the
                 moment a strong quorum matches, at its own round. *)
              begin_commit_phase t client out ~key ~set ~round:set_round
      end
  | Some _ | None -> ()

let handle_local_commit t client_id ~src =
  let client = t.clients.(client_id) in
  match client.out with
  | Some ({ commit_acks = Some acks; _ } as out) ->
      if Bitset.add acks src && Bitset.count acks >= (2 * t.cfg.f) + 1 then
        complete t client out
  | Some _ | None -> ()

let create ~engine ~net ~keychain ~metrics ~primary_of_instance cfg =
  let zipf = Rcc_workload.Zipf.create ~n:cfg.records ~theta:cfg.theta in
  let gens =
    Array.init cfg.machines (fun m ->
        Rcc_workload.Ycsb.create_shared ~zipf ~write_ratio:cfg.write_ratio
          ~seed:(cfg.seed + (7919 * m)))
  in
  let clients =
    Array.init cfg.clients (fun c ->
        {
          id = c;
          machine = cfg.first_node + (c mod cfg.machines);
          secret = Rcc_crypto.Keychain.client_secret keychain c;
          gen = gens.(c mod cfg.machines);
          instance = c mod cfg.z;
          out = None;
          resends = 0;
          degraded = false;
        })
  in
  let t =
    {
      engine;
      net;
      metrics;
      cfg;
      primary_of_instance;
      clients;
      next_batch_id = 0;
      completed = 0;
      instance_changes = 0;
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
  Array.iteri
    (fun i client ->
      Engine.schedule_after t.engine (Engine.us (i mod 1000)) (fun () ->
          send_next t client))
    t.clients

let stop t = t.stopped <- true

let completed_batches t = t.completed
let instance_changes t = t.instance_changes
let client_instance t c = t.clients.(c).instance
