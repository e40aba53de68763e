module Costs = Rcc_sim.Costs
module Msg = Rcc_messages.Msg
module Batch = Rcc_messages.Batch
module Env = Rcc_replica.Instance_env
module SL = Rcc_proto_core.Slot_log
module Quorum = Rcc_proto_core.Quorum
module Held_batches = Rcc_proto_core.Held_batches
module Checkpointing = Rcc_proto_core.Checkpointing
module Leader = Rcc_proto_core.Leader

(* Protocol-specific slot state; batch / accepted / created_at live in
   the shared {!Rcc_proto_core.Slot_log}. *)
type ack_state = {
  acks : Quorum.t;  (* primary side *)
  mutable acked : bool;  (* backup side: we logged and acked *)
  mutable notified : bool;  (* primary side: commit-notify sent *)
}

type t = { env : Env.t; log : ack_state SL.t; lead : ack_state Leader.t }

let create env =
  let n = env.Env.n and f = env.Env.f in
  let log =
    SL.create ~tag:(env.Env.self, env.Env.instance) ~engine:env.Env.engine
      ~init:(fun _ ->
        { acks = Quorum.create ~n ~f; acked = false; notified = false })
      ()
  in
  { env; log; lead = Leader.create ~certified:true env log }

let primary t = t.lead.Leader.primary
let proposed_upto t = Leader.proposed_upto t.lead
let max_seen t = SL.max_seen t.log

let on_contract_reply t ~src ~max_seen ~reported =
  Leader.on_contract_reply t.lead ~src ~max_seen ~reported
let slot t seq = SL.get t.log seq
let ph (s : ack_state SL.slot) = s.SL.state

let acked_round t ~round =
  match SL.find_opt t.log round with Some s -> (ph s).acked | None -> false

(* --- checkpointing ---------------------------------------------------- *)

(* Crash-fault slots covered by a stable checkpoint are no longer needed:
   contracts are built from the execute stage's record. The vote
   digest is the batch digest at the boundary round. *)
let maybe_checkpoint t =
  match Checkpointing.due t.lead.Leader.ckpt t.log with
  | Some target ->
      let digest =
        match SL.find_opt t.log target with
        | Some { SL.batch = Some b; _ } -> b.Batch.digest
        | Some _ | None -> ""
      in
      t.env.Env.broadcast
        (Msg.Checkpoint
           { instance = t.env.Env.instance; seq = target; state_digest = digest })
  | None -> ()

let advance_exec_upto t =
  ignore (SL.drain t.log ~accept:(fun s -> s.SL.accepted));
  SL.touch t.log;
  Checkpointing.try_stabilize t.lead.Leader.ckpt t.log
    ~on_stable:t.env.Env.on_stable

let accept t s =
  if not s.SL.accepted then
    match s.SL.batch with
    | None -> ()
    | Some batch ->
        s.SL.accepted <- true;
        advance_exec_upto t;
        t.env.Env.accept
          {
            Rcc_replica.Acceptance.instance = t.env.Env.instance;
            round = s.SL.round;
            batch;
            cert = Quorum.to_list (ph s).acks;
            speculative = false;
            history = "";
          };
        maybe_checkpoint t

(* --- primary side -------------------------------------------------------- *)

let on_ack t ~src ~seq =
  if Leader.is_primary t.lead then begin
    let s = slot t seq in
    ignore (Quorum.vote (ph s).acks src);
    if (not (ph s).notified) && Quorum.has_majority (ph s).acks then
      match s.SL.batch with
      | None ->
          (* A majority acked a round we hold no batch for (stale acks
             from a deposed view). An empty digest must not certify, so
             do not notify; the batch arrives via repropose / adopt and a
             later ack completes the round. *)
          ()
      | Some batch ->
          (ph s).notified <- true;
          t.env.Env.broadcast
            (Msg.Commit
               {
                 instance = t.env.Env.instance;
                 view = t.lead.Leader.view;
                 seq;
                 digest = batch.Batch.digest;
               });
          accept t s
  end

let pre_prepare ?exclude t seq batch =
  t.env.Env.broadcast ?exclude
    (Msg.Pre_prepare
       { instance = t.env.Env.instance; view = t.lead.Leader.view; seq; batch })

let propose t batch =
  let seq = t.lead.Leader.next_seq in
  t.lead.Leader.next_seq <- seq + 1;
  let s = slot t seq in
  s.SL.batch <- Some batch;
  ignore (Quorum.vote (ph s).acks t.env.Env.self);
  let exclude dst = Rcc_replica.Byz.excludes t.env.Env.byz ~round:seq dst in
  pre_prepare ~exclude t seq batch

let submit_batch t batch = Leader.submit_batch t.lead batch ~propose:(propose t)

(* --- backup side ----------------------------------------------------------- *)

let on_propose t ~src ~view ~seq batch =
  if src = t.lead.Leader.primary && view = t.lead.Leader.view then begin
    let s = slot t seq in
    if Option.is_none s.SL.batch then begin
      s.SL.batch <- Some batch;
      if not (ph s).acked then begin
        (ph s).acked <- true;
        (* Linear: the ack goes only to the primary. *)
        t.env.Env.send ~dst:t.lead.Leader.primary
          (Msg.Prepare
             { instance = t.env.Env.instance; view; seq; digest = batch.Batch.digest })
      end
    end
  end

let on_commit_notify t ~src ~view ~seq =
  if src = t.lead.Leader.primary && view = t.lead.Leader.view then begin
    let s = slot t seq in
    (* Commit-notify implies a majority logged the batch. *)
    ignore (Quorum.vote (ph s).acks src);
    accept t s
  end

(* --- view change -------------------------------------------------------------- *)

(* Finish taking over: re-propose every slot between the accept frontier
   and the highest round we know about (null-filling holes). *)
let finish_repropose t =
  let reproposals = ref [] in
  for seq = SL.max_seen t.log downto SL.frontier t.log + 1 do
    let batch =
      match SL.find_opt t.log seq with
      | Some { SL.batch = Some b; _ } -> b
      | Some _ | None -> Batch.null ~round:seq
    in
    reproposals := (seq, batch) :: !reproposals
  done;
  (* Announce the new view even with nothing to re-propose, so backups
     adopt the new primary and accept its future proposals. *)
  t.env.Env.broadcast
    (Msg.New_view
       {
         instance = t.env.Env.instance;
         view = t.lead.Leader.view;
         reproposals = !reproposals;
       });
  List.iter
    (fun (seq, batch) ->
      let s = slot t seq in
      s.SL.batch <- Some batch;
      (ph s).notified <- false;
      Quorum.clear (ph s).acks;
      ignore (Quorum.vote (ph s).acks t.env.Env.self);
      pre_prepare t seq batch)
    !reproposals

let set_primary t replica ~view =
  Leader.install_view t.lead ~view ~primary:replica
    ~on_install:(fun () -> SL.touch t.log)
    ~finish:(fun () -> finish_repropose t)
    ~propose:(propose t)

let resign_primary t = Leader.resign_primary t.lead

let on_view_change t ~src ~new_view =
  let l = t.lead in
  if (not t.env.Env.unified) && new_view > l.Leader.view then begin
    let votes = Quorum.Tally.votes l.Leader.vc_votes new_view in
    ignore (Quorum.vote votes src);
    if Quorum.has_majority votes then begin
      let primary = new_view mod t.env.Env.n in
      if primary = t.env.Env.self then set_primary t primary ~view:new_view
    end
  end

let on_new_view t ~src ~view reproposals =
  let l = t.lead in
  if view > l.Leader.view then begin
    l.Leader.view <- view;
    l.Leader.primary <- src;
    l.Leader.holding <- false;
    Held_batches.clear l.Leader.held;
    l.Leader.last_failure_report <- -1;
    List.iter (fun (seq, batch) -> on_propose t ~src ~view ~seq batch) reproposals
  end

(* --- recovery ------------------------------------------------------------------- *)

let adopt t ~round batch ~cert =
  let s = slot t round in
  if not s.SL.accepted then begin
    s.SL.batch <- Some batch;
    List.iter (fun r -> ignore (Quorum.vote (ph s).acks r)) cert;
    accept t s
  end


let fast_forward t ~proof = Leader.fast_forward t.lead ~proof
let retained_slots t = Leader.retained_slots t.lead
let checkpoint_log t = Leader.checkpoint_log t.lead

let start t =
  Leader.start t.lead ~stalled:(fun () -> SL.oldest_incomplete t.log)

let handle t ~src msg =
  match msg with
  | Msg.Pre_prepare { view; seq; batch; _ } -> on_propose t ~src ~view ~seq batch
  | Msg.Prepare { seq; _ } -> on_ack t ~src ~seq
  | Msg.Commit { view; seq; _ } -> on_commit_notify t ~src ~view ~seq
  | Msg.View_change { new_view; _ } -> on_view_change t ~src ~new_view
  | Msg.New_view { view; reproposals; _ } -> on_new_view t ~src ~view reproposals
  | Msg.Checkpoint { seq; state_digest; _ } ->
      Leader.on_checkpoint t.lead ~src ~seq ~digest:state_digest
  | Msg.Client_request _ | Msg.Order_request _
  | Msg.Commit_cert _ | Msg.Local_commit _ | Msg.Hs_proposal _ | Msg.Hs_vote _
  | Msg.Response _ | Msg.Contract _ | Msg.Contract_request _
  | Msg.Contract_reply _ | Msg.Instance_change _ | Msg.View_sync _
  | Msg.Snapshot_request _ | Msg.Snapshot_reply _ ->
      ()

let cost_of (costs : Costs.t) msg =
  match msg with
  | Msg.Pre_prepare { batch; _ } ->
      costs.Costs.worker_msg + costs.Costs.mac_verify
      + Costs.hash_cost costs (Batch.size batch)
  | Msg.New_view { reproposals; _ } ->
      costs.Costs.worker_msg + costs.Costs.mac_verify
      + List.fold_left
          (fun acc (_, b) -> acc + Costs.hash_cost costs (Batch.size b))
          0 reproposals
  | Msg.Prepare _ | Msg.Commit _ | Msg.View_change _ | Msg.Checkpoint _ ->
      costs.Costs.worker_msg + costs.Costs.mac_verify
  | Msg.Client_request _ | Msg.Order_request _
  | Msg.Commit_cert _ | Msg.Local_commit _ | Msg.Hs_proposal _ | Msg.Hs_vote _
  | Msg.Response _ | Msg.Contract _ | Msg.Contract_request _
  | Msg.Contract_reply _ | Msg.Instance_change _ | Msg.View_sync _
  | Msg.Snapshot_request _ | Msg.Snapshot_reply _ ->
      costs.Costs.worker_msg
