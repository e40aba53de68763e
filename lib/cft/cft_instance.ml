module Engine = Rcc_sim.Engine
module Costs = Rcc_sim.Costs
module Msg = Rcc_messages.Msg
module Batch = Rcc_messages.Batch
module Env = Rcc_replica.Instance_env
module SL = Rcc_proto_core.Slot_log
module Quorum = Rcc_proto_core.Quorum
module Held_batches = Rcc_proto_core.Held_batches
module Checkpointing = Rcc_proto_core.Checkpointing

(* Protocol-specific slot state; batch / accepted / created_at live in
   the shared {!Rcc_proto_core.Slot_log}. *)
type ack_state = {
  acks : Quorum.t;  (* primary side *)
  mutable acked : bool;  (* backup side: we logged and acked *)
  mutable notified : bool;  (* primary side: commit-notify sent *)
}

type t = {
  env : Env.t;
  mutable view : int;
  mutable primary : int;
  mutable next_seq : int;
  log : ack_state SL.t;
  vc_votes : Quorum.Tally.t;
  mutable vc_sent_for : int;
  mutable last_failure_report : int;
  mutable in_transfer : bool;  (* new primary syncing in-flight slots *)
  ckpt : Checkpointing.t;
  held : Held_batches.t;
  mutable running : bool;
}

let create env =
  let n = env.Env.n and f = env.Env.f in
  {
    env;
    view = 0;
    primary = env.Env.instance;
    next_seq = 0;
    log =
      SL.create ~tag:(env.Env.self, env.Env.instance) ~engine:env.Env.engine
        ~init:(fun _ ->
          { acks = Quorum.create ~n ~f; acked = false; notified = false })
        ();
    vc_votes = Quorum.Tally.create ~n ~f;
    vc_sent_for = 0;
    last_failure_report = -1;
    in_transfer = false;
    ckpt = Checkpointing.create ~n ~f ~interval:env.Env.checkpoint_interval ();
    held = Held_batches.create ();
    running = false;
  }

let primary t = t.primary
let view t = t.view
let proposed_upto t = t.next_seq - 1
let is_primary t = t.primary = t.env.Env.self
let slot t seq = SL.get t.log seq
let ph (s : ack_state SL.slot) = s.SL.state

let acked_round t ~round =
  match SL.find_opt t.log round with Some s -> (ph s).acked | None -> false

(* --- checkpointing ---------------------------------------------------- *)

(* Crash-fault slots covered by a stable checkpoint are only needed for
   contracts, which the coordinator serves from its own history. The vote
   digest is the batch digest at the boundary round. *)
let maybe_checkpoint t =
  match Checkpointing.due t.ckpt t.log with
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

let on_checkpoint t ~src seq digest =
  Checkpointing.on_vote t.ckpt t.log ~src ~seq ~digest
    ~on_stable:t.env.Env.on_stable

let advance_exec_upto t =
  ignore (SL.drain t.log ~accept:(fun s -> s.SL.accepted));
  SL.touch t.log;
  Checkpointing.try_stabilize t.ckpt t.log ~on_stable:t.env.Env.on_stable

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
  if is_primary t then begin
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
                 view = t.view;
                 seq;
                 digest = batch.Batch.digest;
               });
          accept t s
  end

let propose t batch =
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  let s = slot t seq in
  s.SL.batch <- Some batch;
  ignore (Quorum.vote (ph s).acks t.env.Env.self);
  let exclude dst = Rcc_replica.Byz.excludes t.env.Env.byz ~round:seq dst in
  t.env.Env.broadcast ~exclude
    (Msg.Pre_prepare { instance = t.env.Env.instance; view = t.view; seq; batch })

let submit_batch t batch =
  if is_primary t then
    if t.in_transfer then
      (* Hold rather than drop: fresh client batches and the liveness
         monitor's one-shot null fills arriving inside the transfer
         window flush once the takeover completes. *)
      Held_batches.hold t.held batch
    else propose t batch

(* --- backup side ----------------------------------------------------------- *)

let on_propose t ~src ~view ~seq batch =
  if src = t.primary && view = t.view then begin
    let s = slot t seq in
    if Option.is_none s.SL.batch then begin
      s.SL.batch <- Some batch;
      if not (ph s).acked then begin
        (ph s).acked <- true;
        (* Linear: the ack goes only to the primary. *)
        t.env.Env.send ~dst:t.primary
          (Msg.Prepare
             { instance = t.env.Env.instance; view; seq; digest = batch.Batch.digest })
      end
    end
  end

let on_commit_notify t ~src ~view ~seq =
  if src = t.primary && view = t.view then begin
    let s = slot t seq in
    (* Commit-notify implies a majority logged the batch. *)
    ignore (Quorum.vote (ph s).acks src);
    accept t s
  end

(* --- view change -------------------------------------------------------------- *)

let broadcast_view_change t ~round =
  let new_view = t.view + 1 in
  t.vc_sent_for <- max t.vc_sent_for new_view;
  t.env.Env.broadcast
    (Msg.View_change
       {
         instance = t.env.Env.instance;
         new_view;
         blamed = t.primary;
         round;
         last_exec = SL.frontier t.log;
         signature = t.env.Env.sign_blame ~view:t.view ~blamed:t.primary ~round;
       });
  if not t.env.Env.unified then
    ignore (Quorum.vote (Quorum.Tally.votes t.vc_votes new_view) t.env.Env.self)

let detect_failure t ~round =
  if t.last_failure_report < round then begin
    t.last_failure_report <- round;
    broadcast_view_change t ~round;
    t.env.Env.report_failure ~round ~blamed:t.primary
  end

(* How long a new primary waits for peers to vouch for in-flight slots
   before re-proposing over them. *)
let recover_grace t = max (Engine.ms 1) (t.env.Env.timeout / 8)

(* Finish taking over: re-propose every slot between the accept frontier
   and the highest round we know about (null-filling holes), then flush
   batches held through the transfer. *)
let finish_repropose t =
  t.in_transfer <- false;
  t.next_seq <- max t.next_seq (SL.max_seen t.log + 1);
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
       { instance = t.env.Env.instance; view = t.view; reproposals = !reproposals });
  List.iter
    (fun (seq, batch) ->
      let s = slot t seq in
      s.SL.batch <- Some batch;
      (ph s).notified <- false;
      Quorum.clear (ph s).acks;
      ignore (Quorum.vote (ph s).acks t.env.Env.self);
      t.env.Env.broadcast
        (Msg.Pre_prepare { instance = t.env.Env.instance; view = t.view; seq; batch }))
    !reproposals;
  Held_batches.flush t.held ~propose:(propose t)

let repropose_incomplete t =
  if t.env.Env.unified then begin
    (* A primary taking over an instance it was cut off from does not
       know how far the deposed primary ran; recover the cluster-wide
       in-flight frontier from peers first (§3.3 state exchange) and
       re-propose only after the grace window, holding fresh submissions
       back meanwhile. *)
    t.in_transfer <- true;
    t.env.Env.broadcast
      (Msg.New_view
         { instance = t.env.Env.instance; view = t.view; reproposals = [] });
    t.env.Env.broadcast
      (Msg.Contract_request
         { round = SL.frontier t.log + 1; instance = t.env.Env.instance });
    let view = t.view in
    Engine.schedule_after t.env.Env.engine (recover_grace t) (fun () ->
        if t.view = view && is_primary t && t.in_transfer then
          finish_repropose t)
  end
  else
    (* Standalone: no contract machinery; re-propose immediately. *)
    finish_repropose t

let install_view t ~view ~primary =
  t.view <- view;
  t.primary <- primary;
  t.in_transfer <- false;
  (* Held batches flush at the end of [finish_repropose] if we lead the
     new view; a backup must not sit on them — its clients' requests are
     the new primary's job. *)
  if primary <> t.env.Env.self then Held_batches.clear t.held;
  t.last_failure_report <- -1;
  SL.touch t.log;
  Quorum.Tally.prune t.vc_votes ~upto:view;
  if is_primary t then repropose_incomplete t

let set_primary t replica ~view = install_view t ~view ~primary:replica

(* Restart-from-disk: hold proposals until a leader change re-establishes
   the in-flight frontier; the lost incarnation may have replicated
   entries past what the disk proves. *)
let resign_primary t = if is_primary t then t.in_transfer <- true

let on_view_change t ~src ~new_view =
  if (not t.env.Env.unified) && new_view > t.view then begin
    let votes = Quorum.Tally.votes t.vc_votes new_view in
    ignore (Quorum.vote votes src);
    if Quorum.has_majority votes then begin
      let primary = new_view mod t.env.Env.n in
      if primary = t.env.Env.self then install_view t ~view:new_view ~primary
    end
  end

let on_new_view t ~src ~view reproposals =
  if view > t.view then begin
    t.view <- view;
    t.primary <- src;
    t.in_transfer <- false;
    Held_batches.clear t.held;
    t.last_failure_report <- -1;
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

let accepted_batch t ~round =
  match SL.find_opt t.log round with
  | Some ({ SL.accepted = true; batch = Some b; _ } as s) ->
      Some (b, Quorum.to_list (ph s).acks)
  | Some _ | None -> None

let incomplete_rounds t = SL.incomplete_rounds t.log

let fast_forward t ~proof =
  let round = proof.Rcc_storage.Checkpoint_store.seq in
  SL.fast_forward t.log ~round;
  Checkpointing.install t.ckpt proof;
  (* A lagging primary must not re-propose rounds the snapshot covers. *)
  if t.next_seq < round then t.next_seq <- round

let log_stats t = (SL.retained_slots t.log, SL.live_words t.log)
let checkpoint_log t = Checkpointing.log t.ckpt

(* --- watchdog --------------------------------------------------------------------- *)

let rec watchdog t =
  if t.running then begin
    let timeout = t.env.Env.timeout in
    (match SL.oldest_incomplete t.log with
    | Some (round, since) when Engine.now t.env.Env.engine - since > timeout ->
        detect_failure t ~round
    | Some _ | None -> ());
    Engine.schedule_after t.env.Env.engine (timeout / 2) (fun () -> watchdog t)
  end

let start t =
  if not t.running then begin
    t.running <- true;
    Engine.schedule_after t.env.Env.engine t.env.Env.timeout (fun () -> watchdog t)
  end

let handle t ~src msg =
  match msg with
  | Msg.Pre_prepare { view; seq; batch; _ } -> on_propose t ~src ~view ~seq batch
  | Msg.Prepare { seq; _ } -> on_ack t ~src ~seq
  | Msg.Commit { view; seq; _ } -> on_commit_notify t ~src ~view ~seq
  | Msg.View_change { new_view; _ } -> on_view_change t ~src ~new_view
  | Msg.New_view { view; reproposals; _ } -> on_new_view t ~src ~view reproposals
  | Msg.Checkpoint { seq; state_digest; _ } -> on_checkpoint t ~src seq state_digest
  | Msg.Client_request _ | Msg.Order_request _
  | Msg.Commit_cert _ | Msg.Local_commit _ | Msg.Hs_proposal _ | Msg.Hs_vote _
  | Msg.Response _ | Msg.Contract _ | Msg.Contract_request _
  | Msg.Instance_change _ | Msg.View_sync _ | Msg.Snapshot_request _
  | Msg.Snapshot_reply _ ->
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
  | Msg.Instance_change _ | Msg.View_sync _ | Msg.Snapshot_request _
  | Msg.Snapshot_reply _ ->
      costs.Costs.worker_msg
