module Engine = Rcc_sim.Engine
module Costs = Rcc_sim.Costs
module Msg = Rcc_messages.Msg
module Batch = Rcc_messages.Batch
module Env = Rcc_replica.Instance_env
module SL = Rcc_proto_core.Slot_log
module Quorum = Rcc_proto_core.Quorum
module Held_batches = Rcc_proto_core.Held_batches
module Checkpointing = Rcc_proto_core.Checkpointing
module Ordered_batches = Rcc_proto_core.Ordered_batches

(* Protocol-specific slot state; batch / digest / accepted / created_at
   live in the shared {!Rcc_proto_core.Slot_log}. *)
type phase = {
  prepares : Quorum.t;
  commits : Quorum.t;
  mutable prepared : bool;
  mutable prepare_sent : bool;
  mutable commit_sent : bool;
}

type t = {
  env : Env.t;
  mutable view : int;
  mutable primary : int;
  mutable next_seq : int;  (* primary: next round to propose *)
  log : phase SL.t;
  mutable in_view_change : bool;
  vc_votes : Quorum.Tally.t;  (* new_view -> voters *)
  mutable vc_sent_for : int;  (* highest new_view we voted for *)
  mutable last_failure_report : int;  (* round of last report, -1 if none *)
  ckpt : Checkpointing.t;
  held : Held_batches.t;  (* submitted during a view change *)
  ordered : Ordered_batches.t;  (* primary only: retransmission dedup *)
  mutable running : bool;
}

let create env =
  let n = env.Env.n and f = env.Env.f in
  {
    env;
    view = 0;
    primary = env.Env.instance;  (* P_x initially runs on replica x (§4) *)
    next_seq = 0;
    log =
      SL.create ~tag:(env.Env.self, env.Env.instance) ~engine:env.Env.engine
        ~init:(fun _ ->
          {
            prepares = Quorum.create ~n ~f;
            commits = Quorum.create ~n ~f;
            prepared = false;
            prepare_sent = false;
            commit_sent = false;
          })
        ();
    in_view_change = false;
    vc_votes = Quorum.Tally.create ~n ~f;
    vc_sent_for = 0;
    last_failure_report = -1;
    ckpt = Checkpointing.create ~n ~f ~interval:env.Env.checkpoint_interval ();
    held = Held_batches.create ();
    ordered = Ordered_batches.create ();
    running = false;
  }

let primary t = t.primary
let view t = t.view
let in_view_change t = t.in_view_change
let stable_checkpoint t = Checkpointing.stable t.ckpt
let is_primary t = t.primary = t.env.Env.self
let slot t seq = SL.get t.log seq
let ph (s : phase SL.slot) = s.SL.state

let prepared_round t ~round =
  match SL.find_opt t.log round with Some s -> (ph s).prepared | None -> false

(* --- checkpointing ------------------------------------------------- *)

let advance_exec_upto t =
  ignore (SL.drain t.log ~accept:(fun s -> s.SL.accepted));
  SL.touch t.log;
  Checkpointing.try_stabilize t.ckpt t.log ~on_stable:t.env.Env.on_stable

let maybe_checkpoint t =
  match Checkpointing.due t.ckpt t.log with
  | Some target ->
      let digest =
        match SL.find_opt t.log target with
        | Some { SL.digest = Some d; _ } -> d
        | Some _ | None -> ""
      in
      t.env.Env.broadcast
        (Msg.Checkpoint
           { instance = t.env.Env.instance; seq = target; state_digest = digest })
  | None -> ()

let on_checkpoint t ~src seq digest =
  Checkpointing.on_vote t.ckpt t.log ~src ~seq ~digest
    ~on_stable:t.env.Env.on_stable

(* --- normal case ---------------------------------------------------- *)

let accept t s =
  if not s.SL.accepted then begin
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
            cert = Quorum.to_list (ph s).commits;
            speculative = false;
            history = "";
          };
        maybe_checkpoint t
  end

let check_committed t s =
  if
    (not s.SL.accepted)
    && Quorum.has_quorum (ph s).commits
    && Option.is_some s.SL.batch
  then accept t s

let send_commit t s =
  if not (ph s).commit_sent then begin
    (ph s).commit_sent <- true;
    ignore (Quorum.vote (ph s).commits t.env.Env.self);
    match s.SL.digest with
    | Some digest ->
        t.env.Env.broadcast
          (Msg.Commit
             {
               instance = t.env.Env.instance;
               view = t.view;
               seq = s.SL.round;
               digest;
             });
        check_committed t s
    | None -> ()
  end

let check_prepared t s =
  if (not (ph s).prepared) && Quorum.has_quorum (ph s).prepares then begin
    (ph s).prepared <- true;
    send_commit t s
  end

let on_pre_prepare t ~src ~view ~seq batch =
  if
    src = t.primary && view = t.view && (not t.in_view_change)
    && seq > Checkpointing.stable t.ckpt
  then begin
    let s = slot t seq in
    match s.SL.digest with
    | Some d when not (String.equal d batch.Batch.digest) ->
        (* Equivocation evidence: the primary proposed two different
           batches for one round. *)
        t.env.Env.report_failure ~round:seq ~blamed:t.primary
    | Some _ | None ->
        if Option.is_none s.SL.batch then begin
          s.SL.batch <- Some batch;
          s.SL.digest <- Some batch.Batch.digest;
          ignore (Quorum.vote (ph s).prepares src);
          if not (ph s).prepare_sent then begin
            (ph s).prepare_sent <- true;
            ignore (Quorum.vote (ph s).prepares t.env.Env.self);
            t.env.Env.broadcast
              (Msg.Prepare
                 {
                   instance = t.env.Env.instance;
                   view;
                   seq;
                   digest = batch.Batch.digest;
                 })
          end;
          check_prepared t s;
          check_committed t s
        end
  end

let on_prepare t ~src ~view ~seq ~digest =
  if view = t.view && seq > Checkpointing.stable t.ckpt then begin
    let s = slot t seq in
    if Option.is_none s.SL.digest && src <> t.primary then
      s.SL.digest <- Some digest;
    match s.SL.digest with
    | Some d when String.equal d digest ->
        ignore (Quorum.vote (ph s).prepares src);
        check_prepared t s
    | Some _ | None -> ()
  end

let on_commit t ~src ~view ~seq ~digest =
  if view = t.view && seq > Checkpointing.stable t.ckpt then begin
    let s = slot t seq in
    if Option.is_none s.SL.digest && src <> t.primary then
      s.SL.digest <- Some digest;
    match s.SL.digest with
    | Some d when String.equal d digest ->
        ignore (Quorum.vote (ph s).commits src);
        check_committed t s
    | Some _ | None -> ()
  end

(* --- proposing ------------------------------------------------------ *)

let propose_fresh t batch =
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  let s = slot t seq in
  s.SL.batch <- Some batch;
  s.SL.digest <- Some batch.Batch.digest;
  Ordered_batches.record t.ordered batch ~seq;
  ignore (Quorum.vote (ph s).prepares t.env.Env.self);
  (ph s).prepare_sent <- true;
  if t.env.Env.byz.Rcc_replica.Byz.equivocate then begin
    (* Equivocation: conflicting proposals to the two halves of the
       backups. Neither half can assemble 2f+1 matching PREPAREs, so no
       honest replica accepts and the timeout blames the primary. *)
    let conflicting = Batch.null ~round:seq in
    let lower dst = dst < t.env.Env.n / 2 in
    t.env.Env.broadcast
      ~exclude:(fun dst -> not (lower dst))
      (Msg.Pre_prepare { instance = t.env.Env.instance; view = t.view; seq; batch });
    t.env.Env.broadcast ~exclude:lower
      (Msg.Pre_prepare
         { instance = t.env.Env.instance; view = t.view; seq; batch = conflicting })
  end
  else begin
    (* A byzantine primary may keep selected replicas in the dark
       (Example 3.3): they receive no PRE-PREPARE, only the other backups'
       PREPAREs, which never suffice for them to accept. *)
    let exclude dst = Rcc_replica.Byz.excludes t.env.Env.byz ~round:seq dst in
    t.env.Env.broadcast ~exclude
      (Msg.Pre_prepare { instance = t.env.Env.instance; view = t.view; seq; batch })
  end;
  check_prepared t s

let propose t batch =
  match Ordered_batches.check t.ordered t.log batch with
  | Ordered_batches.Collected -> ()
  | Ordered_batches.Reannounce seq ->
      t.env.Env.broadcast
        (Msg.Pre_prepare
           { instance = t.env.Env.instance; view = t.view; seq; batch })
  | Ordered_batches.Fresh -> propose_fresh t batch

let submit_batch t batch =
  if is_primary t then begin
    if t.in_view_change then
      (* Hold rather than drop: the liveness monitor's null fills and
         fresh client batches arriving inside the recovery grace window
         would otherwise vanish — and the monitor only fills a stalled
         round once, so a swallowed fill stalls the instance forever. *)
      Held_batches.hold t.held batch
    else propose t batch
  end

(* --- view changes ---------------------------------------------------- *)

let broadcast_view_change t ~round =
  let new_view = t.view + 1 in
  t.vc_sent_for <- max t.vc_sent_for new_view;
  let msg =
    Msg.View_change
      {
        instance = t.env.Env.instance;
        new_view;
        blamed = t.primary;
        round;
        last_exec = SL.frontier t.log;
        signature = t.env.Env.sign_blame ~view:t.view ~blamed:t.primary ~round;
      }
  in
  t.env.Env.broadcast msg;
  (* Count our own vote. *)
  if not t.env.Env.unified then
    ignore (Quorum.vote (Quorum.Tally.votes t.vc_votes new_view) t.env.Env.self)

let detect_failure t ~round =
  if t.last_failure_report < round then begin
    t.last_failure_report <- round;
    t.in_view_change <- not t.env.Env.unified;
    broadcast_view_change t ~round;
    t.env.Env.report_failure ~round ~blamed:t.primary
  end

(* Re-propose every incomplete round in the new view. Rounds this replica
   never learned are recovered from peers first in unified mode (§3.3
   state exchange): another replica may hold — or have executed — the
   deposed primary's in-flight batch for the round, and hole-filling a
   null over it would fork the ledgers. Nulls go out only for rounds
   nobody vouches for within the grace period. Only the new primary
   calls this. *)
let recover_grace t = max (Engine.ms 1) (t.env.Env.timeout / 8)

let repropose_now t reproposals =
  (* Announce the new view even with nothing to re-propose, so backups
     adopt the new primary and accept its future proposals. *)
  t.env.Env.broadcast
    (Msg.New_view { instance = t.env.Env.instance; view = t.view; reproposals });
  (* Treat our own reproposals as fresh proposals in the new view. *)
  List.iter
    (fun (seq, batch) ->
      let s = slot t seq in
      s.SL.batch <- Some batch;
      s.SL.digest <- Some batch.Batch.digest;
      (ph s).prepared <- false;
      (ph s).commit_sent <- false;
      (ph s).prepare_sent <- true;
      Quorum.clear (ph s).prepares;
      Quorum.clear (ph s).commits;
      ignore (Quorum.vote (ph s).prepares t.env.Env.self);
      t.env.Env.broadcast
        (Msg.Pre_prepare { instance = t.env.Env.instance; view = t.view; seq; batch }))
    reproposals

let gather_reproposals t =
  let reproposals = ref [] in
  for seq = SL.max_seen t.log downto SL.frontier t.log + 1 do
    match SL.find_opt t.log seq with
    | Some s when not s.SL.accepted ->
        let b =
          match s.SL.batch with Some b -> b | None -> Batch.null ~round:seq
        in
        reproposals := (seq, b) :: !reproposals
    | Some _ -> ()
    | None -> reproposals := (seq, Batch.null ~round:seq) :: !reproposals
  done;
  !reproposals

let finish_repropose t =
  t.in_view_change <- false;
  let reproposals = gather_reproposals t in
  t.next_seq <- max t.next_seq (SL.max_seen t.log + 1);
  repropose_now t reproposals;
  Held_batches.flush t.held ~propose:(propose t)

let repropose_incomplete t =
  if t.env.Env.unified then begin
    (* Announce the new view immediately so backups adopt the new
       primary, but defer all re-proposing until the cluster-wide
       in-flight frontier has been recovered from peers (§3.3 state
       exchange): a primary taking over an instance it was cut off from
       does not know how far the deposed primary ran, and proposing a
       fresh batch — or a null — at a slot others already prepared would
       fork the instance. [in_view_change] stays set through the grace
       period, holding fresh proposals back; the contract reply covers
       the whole contiguous window above the requested round. *)
    t.in_view_change <- true;
    t.env.Env.broadcast
      (Msg.New_view
         { instance = t.env.Env.instance; view = t.view; reproposals = [] });
    t.env.Env.broadcast
      (Msg.Contract_request
         { round = SL.frontier t.log + 1; instance = t.env.Env.instance });
    let view = t.view in
    Engine.schedule_after t.env.Env.engine (recover_grace t) (fun () ->
        if t.view = view && is_primary t && t.in_view_change then
          finish_repropose t)
  end
  else
    (* Standalone PBFT: no contract machinery; re-propose what we have
       and null-fill the rest immediately. *)
    finish_repropose t

let install_view t ~view ~primary =
  t.view <- view;
  t.primary <- primary;
  t.in_view_change <- false;
  Ordered_batches.reset t.ordered;
  (* Batches held through the view change flush at the end of
     [finish_repropose] if we lead the new view; a backup must not sit
     on them — its clients' requests are the new primary's job. *)
  if primary <> t.env.Env.self then Held_batches.clear t.held;
  t.last_failure_report <- -1;
  Quorum.Tally.prune t.vc_votes ~upto:view;
  if is_primary t then repropose_incomplete t

let set_primary t replica ~view = install_view t ~view ~primary:replica

(* Restart-from-disk: the lost incarnation may have pre-prepared rounds
   past the durable frontier; re-assigning those seqs would equivocate.
   Hold everything until a view change re-elects sequencing. *)
let resign_primary t = if is_primary t then t.in_view_change <- true

let on_view_change t ~src ~new_view =
  (* Standalone PBFT election: the new primary is view mod n. Under RCC the
     router sends VIEW-CHANGE messages to the coordinator instead. *)
  if (not t.env.Env.unified) && new_view > t.view then begin
    let votes = Quorum.Tally.votes t.vc_votes new_view in
    ignore (Quorum.vote votes src);
    (* Join a view change supported by f+1 others (one must be honest). *)
    if Quorum.has_weak votes && t.vc_sent_for < new_view then begin
      t.in_view_change <- true;
      t.view <- new_view - 1;
      broadcast_view_change t ~round:(SL.frontier t.log + 1);
      ignore (Quorum.vote votes t.env.Env.self)
    end;
    if Quorum.has_quorum votes then begin
      let primary = new_view mod t.env.Env.n in
      if primary = t.env.Env.self then install_view t ~view:new_view ~primary
      (* Backups adopt the view when the NEW-VIEW arrives. *)
    end
  end

let on_new_view t ~src ~view reproposals =
  (* Same-view NEW-VIEWs from the current primary carry late hole-filling
     reproposals (rounds it first tried to recover from peers). *)
  if view > t.view || (view = t.view && (t.in_view_change || src = t.primary))
  then begin
    let primary = src in
    t.view <- view;
    t.primary <- primary;
    t.in_view_change <- false;
    Ordered_batches.reset t.ordered;
    t.last_failure_report <- -1;
    List.iter
      (fun (seq, batch) ->
        (match SL.find_opt t.log seq with
        | Some s when not s.SL.accepted ->
            s.SL.batch <- None;
            s.SL.digest <- None;
            (ph s).prepared <- false;
            (ph s).prepare_sent <- false;
            (ph s).commit_sent <- false;
            Quorum.clear (ph s).prepares;
            Quorum.clear (ph s).commits
        | Some _ | None -> ());
        on_pre_prepare t ~src ~view ~seq batch)
      reproposals
  end

(* --- recovery (contracts) -------------------------------------------- *)

let adopt t ~round batch ~cert =
  let s = slot t round in
  if not s.SL.accepted then begin
    s.SL.batch <- Some batch;
    s.SL.digest <- Some batch.Batch.digest;
    List.iter (fun r -> ignore (Quorum.vote (ph s).commits r)) cert;
    s.SL.accepted <- true;
    advance_exec_upto t;
    t.env.Env.accept
      {
        Rcc_replica.Acceptance.instance = t.env.Env.instance;
        round;
        batch;
        cert;
        speculative = false;
        history = "";
      }
  end

let proposed_upto t = t.next_seq - 1

let fast_forward t ~proof =
  let round = proof.Rcc_storage.Checkpoint_store.seq in
  SL.fast_forward t.log ~round;
  Checkpointing.install t.ckpt proof;
  (* A lagging primary must not re-propose rounds the snapshot covers. *)
  if t.next_seq < round then t.next_seq <- round

let log_stats t = (SL.retained_slots t.log, SL.live_words t.log)
let checkpoint_log t = Checkpointing.log t.ckpt

let accepted_batch t ~round =
  match SL.find_opt t.log round with
  | Some ({ SL.accepted = true; batch = Some b; _ } as s) ->
      Some (b, Quorum.to_list (ph s).commits)
  | Some _ | None -> None

let incomplete_rounds t = SL.incomplete_rounds t.log

(* --- failure detection ------------------------------------------------ *)

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

(* --- dispatch --------------------------------------------------------- *)

let handle t ~src msg =
  match msg with
  | Msg.Pre_prepare { view; seq; batch; _ } -> on_pre_prepare t ~src ~view ~seq batch
  | Msg.Prepare { view; seq; digest; _ } -> on_prepare t ~src ~view ~seq ~digest
  | Msg.Commit { view; seq; digest; _ } -> on_commit t ~src ~view ~seq ~digest
  | Msg.Checkpoint { seq; state_digest; _ } -> on_checkpoint t ~src seq state_digest
  | Msg.View_change { new_view; _ } -> on_view_change t ~src ~new_view
  | Msg.New_view { view; reproposals; _ } -> on_new_view t ~src ~view reproposals
  | Msg.Client_request _ | Msg.Order_request _ | Msg.Commit_cert _
  | Msg.Local_commit _ | Msg.Hs_proposal _ | Msg.Hs_vote _ | Msg.Response _
  | Msg.Contract _ | Msg.Contract_request _ | Msg.Instance_change _ | Msg.View_sync _ | Msg.Snapshot_request _
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
  | Msg.Prepare _ | Msg.Commit _ | Msg.Checkpoint _ | Msg.View_change _
  | Msg.Commit_cert _ | Msg.Local_commit _ ->
      costs.Costs.worker_msg + costs.Costs.mac_verify
  | Msg.Client_request _ | Msg.Order_request _ | Msg.Hs_proposal _
  | Msg.Hs_vote _ | Msg.Response _ | Msg.Contract _ | Msg.Contract_request _
  | Msg.Instance_change _ | Msg.View_sync _ | Msg.Snapshot_request _
  | Msg.Snapshot_reply _ ->
      costs.Costs.worker_msg
