module Costs = Rcc_sim.Costs
module Msg = Rcc_messages.Msg
module Batch = Rcc_messages.Batch
module Env = Rcc_replica.Instance_env
module SL = Rcc_proto_core.Slot_log
module Quorum = Rcc_proto_core.Quorum
module Checkpointing = Rcc_proto_core.Checkpointing
module Ordered_batches = Rcc_proto_core.Ordered_batches
module Leader = Rcc_proto_core.Leader

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
  log : phase SL.t;
  lead : phase Leader.t;
  ordered : Ordered_batches.t;  (* primary only: retransmission dedup *)
}

let create env =
  let n = env.Env.n and f = env.Env.f in
  let log =
    SL.create ~tag:(env.Env.self, env.Env.instance) ~engine:env.Env.engine
      ~init:(fun _ ->
        {
          prepares = Quorum.create ~n ~f;
          commits = Quorum.create ~n ~f;
          prepared = false;
          prepare_sent = false;
          commit_sent = false;
        })
      ()
  in
  {
    env;
    log;
    lead = Leader.create ~certified:true env log;
    ordered = Ordered_batches.create ();
  }

let primary t = t.lead.Leader.primary
let stable_checkpoint t = Checkpointing.stable t.lead.Leader.ckpt
let slot t seq = SL.get t.log seq
let ph (s : phase SL.slot) = s.SL.state

let prepared_round t ~round =
  match SL.find_opt t.log round with Some s -> (ph s).prepared | None -> false

(* --- checkpointing ------------------------------------------------- *)

let advance_exec_upto t =
  ignore (SL.drain t.log ~accept:(fun s -> s.SL.accepted));
  SL.touch t.log;
  Checkpointing.try_stabilize t.lead.Leader.ckpt t.log
    ~on_stable:t.env.Env.on_stable

let maybe_checkpoint t =
  Checkpointing.announce t.lead.Leader.ckpt t.log ~env:t.env ~digest:(fun s ->
      Option.value s.SL.digest ~default:"")

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
               view = t.lead.Leader.view;
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
  let l = t.lead in
  if
    src = l.Leader.primary && view = l.Leader.view && (not l.Leader.holding)
    && seq > Checkpointing.stable l.Leader.ckpt
  then begin
    let s = slot t seq in
    match s.SL.digest with
    | Some d when not (String.equal d batch.Batch.digest) ->
        (* Equivocation evidence: the primary proposed two different
           batches for one round. *)
        t.env.Env.report_failure ~announce:false ~round:seq
          ~blamed:l.Leader.primary
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
  if view = t.lead.Leader.view && seq > stable_checkpoint t then begin
    let s = slot t seq in
    if Option.is_none s.SL.digest && src <> t.lead.Leader.primary then
      s.SL.digest <- Some digest;
    match s.SL.digest with
    | Some d when String.equal d digest ->
        ignore (Quorum.vote (ph s).prepares src);
        check_prepared t s
    | Some _ | None -> ()
  end

let on_commit t ~src ~view ~seq ~digest =
  if view = t.lead.Leader.view && seq > stable_checkpoint t then begin
    let s = slot t seq in
    if Option.is_none s.SL.digest && src <> t.lead.Leader.primary then
      s.SL.digest <- Some digest;
    match s.SL.digest with
    | Some d when String.equal d digest ->
        ignore (Quorum.vote (ph s).commits src);
        check_committed t s
    | Some _ | None -> ()
  end

(* --- proposing ------------------------------------------------------ *)

let propose_fresh t batch =
  let view = t.lead.Leader.view in
  let seq = t.lead.Leader.next_seq in
  t.lead.Leader.next_seq <- seq + 1;
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
      (Msg.Pre_prepare { instance = t.env.Env.instance; view; seq; batch });
    t.env.Env.broadcast ~exclude:lower
      (Msg.Pre_prepare
         { instance = t.env.Env.instance; view; seq; batch = conflicting })
  end
  else begin
    (* A byzantine primary may keep selected replicas in the dark
       (Example 3.3): they receive no PRE-PREPARE, only the other backups'
       PREPAREs, which never suffice for them to accept. *)
    let exclude dst = Rcc_replica.Byz.excludes t.env.Env.byz ~round:seq dst in
    t.env.Env.broadcast ~exclude
      (Msg.Pre_prepare { instance = t.env.Env.instance; view; seq; batch })
  end;
  check_prepared t s

let propose t batch =
  match Ordered_batches.check t.ordered t.log batch with
  | Ordered_batches.Collected -> ()
  | Ordered_batches.Reannounce seq ->
      t.env.Env.broadcast
        (Msg.Pre_prepare
           { instance = t.env.Env.instance; view = t.lead.Leader.view; seq; batch })
  | Ordered_batches.Fresh -> propose_fresh t batch

let submit_batch t batch = Leader.submit_batch t.lead batch ~propose:(propose t)

(* --- view changes ---------------------------------------------------- *)

(* Re-propose every incomplete round in the new view, null-filling the
   rounds nobody vouched for (under RCC, only once the takeover has
   heard from its peers or waited out its grace period: another replica
   may hold — or have executed — the deposed primary's in-flight batch
   for a round, and a null over it would fork the ledgers). Only the new
   primary calls this. *)
let repropose_now t reproposals =
  let view = t.lead.Leader.view in
  (* Announce the new view even with nothing to re-propose, so backups
     adopt the new primary and accept its future proposals. *)
  t.env.Env.broadcast
    (Msg.New_view { instance = t.env.Env.instance; view; reproposals });
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
        (Msg.Pre_prepare { instance = t.env.Env.instance; view; seq; batch }))
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

(* A backup entering a new view drops what it holds of the old view's
   unprepared rounds. The new primary may propose any batch there, and a
   stale digest would make that look like equivocation: a blame instead
   of progress, and no replacement while too few replicas are reachable
   to agree on one. Prepared rounds keep their state: a batch that
   committed anywhere was prepared at f + 1 honest replicas, which still
   refuse a different one, so no other batch gathers 2f + 1 prepares. *)
let drop_unprepared t =
  for seq = SL.frontier t.log + 1 to SL.max_seen t.log do
    match SL.find_opt t.log seq with
    | Some s when (not s.SL.accepted) && not (ph s).prepared ->
        s.SL.batch <- None;
        s.SL.digest <- None;
        (ph s).prepare_sent <- false;
        (ph s).commit_sent <- false;
        Quorum.clear (ph s).prepares;
        Quorum.clear (ph s).commits
    | Some _ | None -> ()
  done

let set_primary t replica ~view =
  Leader.install_view t.lead ~view ~primary:replica
    ~on_install:(fun () ->
      Ordered_batches.reset t.ordered;
      if replica <> t.env.Env.self then drop_unprepared t)
    ~finish:(fun () -> repropose_now t (gather_reproposals t))
    ~propose:(propose t)

let resign_primary t = Leader.resign_primary t.lead

let on_view_change t ~src ~new_view =
  let l = t.lead in
  (* Standalone PBFT election: the new primary is view mod n. Under RCC the
     router sends VIEW-CHANGE messages to the coordinator instead. *)
  if (not t.env.Env.unified) && new_view > l.Leader.view then begin
    let votes = Quorum.Tally.votes l.Leader.vc_votes new_view in
    ignore (Quorum.vote votes src);
    (* Join a view change supported by f+1 others (one must be honest). *)
    if Quorum.has_weak votes && l.Leader.vc_sent_for < new_view then begin
      l.Leader.holding <- true;
      l.Leader.view <- new_view - 1;
      Leader.broadcast_view_change l ~round:(SL.frontier t.log + 1);
      ignore (Quorum.vote votes t.env.Env.self)
    end;
    if Quorum.has_quorum votes then begin
      let primary = new_view mod t.env.Env.n in
      if primary = t.env.Env.self then set_primary t primary ~view:new_view
      (* Backups adopt the view when the NEW-VIEW arrives. *)
    end
  end

let on_new_view t ~src ~view reproposals =
  let l = t.lead in
  (* Same-view NEW-VIEWs from the current primary carry late hole-filling
     reproposals (rounds it first tried to recover from peers). *)
  if
    view > l.Leader.view
    || (view = l.Leader.view && (l.Leader.holding || src = l.Leader.primary))
  then begin
    l.Leader.view <- view;
    l.Leader.primary <- src;
    l.Leader.holding <- false;
    Ordered_batches.reset t.ordered;
    l.Leader.last_failure_report <- -1;
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

let proposed_upto t = Leader.proposed_upto t.lead
let max_seen t = SL.max_seen t.log

let on_contract_reply t ~src ~max_seen ~reported =
  Leader.on_contract_reply t.lead ~src ~max_seen ~reported
let fast_forward t ~proof = Leader.fast_forward t.lead ~proof
let retained_slots t = Leader.retained_slots t.lead
let checkpoint_log t = Leader.checkpoint_log t.lead


(* Standalone PBFT holds through its own view change. Under RCC the
   coordinator decides view changes and a blame leaves the hold alone: a
   primary that blames during its own takeover (its oldest incomplete
   round predates the view) must still finish it, and a resigned primary
   must not resume on its stale sequence numbers. *)
let start t =
  Leader.start t.lead
    ~on_blame:(fun () ->
      if not t.env.Env.unified then t.lead.Leader.holding <- true)
    ~stalled:(fun () -> SL.oldest_incomplete t.log)

(* --- dispatch --------------------------------------------------------- *)

let handle t ~src msg =
  match msg with
  | Msg.Pre_prepare { view; seq; batch; _ } -> on_pre_prepare t ~src ~view ~seq batch
  | Msg.Prepare { view; seq; digest; _ } -> on_prepare t ~src ~view ~seq ~digest
  | Msg.Commit { view; seq; digest; _ } -> on_commit t ~src ~view ~seq ~digest
  | Msg.Checkpoint { seq; state_digest; _ } ->
      Leader.on_checkpoint t.lead ~src ~seq ~digest:state_digest
  | Msg.View_change { new_view; _ } -> on_view_change t ~src ~new_view
  | Msg.New_view { view; reproposals; _ } -> on_new_view t ~src ~view reproposals
  | Msg.Client_request _ | Msg.Order_request _ | Msg.Commit_cert _
  | Msg.Local_commit _ | Msg.Hs_proposal _ | Msg.Hs_vote _ | Msg.Response _
  | Msg.Contract _ | Msg.Contract_request _ | Msg.Contract_reply _
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
  | Msg.Prepare _ | Msg.Commit _ | Msg.Checkpoint _ | Msg.View_change _
  | Msg.Commit_cert _ | Msg.Local_commit _ ->
      costs.Costs.worker_msg + costs.Costs.mac_verify
  | Msg.Client_request _ | Msg.Order_request _ | Msg.Hs_proposal _
  | Msg.Hs_vote _ | Msg.Response _ | Msg.Contract _ | Msg.Contract_request _
  | Msg.Contract_reply _ | Msg.Instance_change _ | Msg.View_sync _
  | Msg.Snapshot_request _ | Msg.Snapshot_reply _ ->
      costs.Costs.worker_msg
