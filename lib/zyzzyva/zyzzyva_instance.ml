module Costs = Rcc_sim.Costs
module Msg = Rcc_messages.Msg
module Batch = Rcc_messages.Batch
module Env = Rcc_replica.Instance_env
module SL = Rcc_proto_core.Slot_log
module Quorum = Rcc_proto_core.Quorum
module Held_batches = Rcc_proto_core.Held_batches
module Checkpointing = Rcc_proto_core.Checkpointing
module Ordered_batches = Rcc_proto_core.Ordered_batches
module Leader = Rcc_proto_core.Leader

(* Protocol-specific slot state; batch / accepted / created_at live in
   the shared {!Rcc_proto_core.Slot_log}. *)
type spec = { mutable history : string (* chain head after accepting *) }

type t = {
  env : Env.t;
  log : spec SL.t;  (* frontier = next_accept - 1: accepts strictly in order *)
  lead : spec Leader.t;
  mutable history : string;  (* running history digest *)
  ordered : Ordered_batches.t;  (* primary only: retransmission dedup *)
}

let create env =
  let log =
    SL.create ~tag:(env.Env.self, env.Env.instance) ~engine:env.Env.engine
      ~init:(fun _ -> { history = "" })
      ()
  in
  {
    env;
    log;
    lead = Leader.create ~certified:false env log;
    history = "";
    ordered = Ordered_batches.create ();
  }

let primary t = t.lead.Leader.primary
let committed_upto t = t.lead.Leader.committed
let history_digest t = t.history
let slot t seq = SL.get t.log seq
let next_accept t = SL.frontier t.log + 1

let extend_history t digest =
  t.history <- Rcc_crypto.Sha256.digest_list [ t.history; digest ];
  t.history

(* --- checkpointing ---------------------------------------------------- *)

(* Slots covered by a stable checkpoint are no longer needed (contracts
   are built from the execute stage's record) — collect them. The
   checkpoint digest is the chained speculative history at the boundary,
   so any two replicas voting for one boundary vouch for the same
   execution prefix. *)
let advance_ckpt t =
  let ckpt = t.lead.Leader.ckpt in
  Checkpointing.try_stabilize ckpt t.log ~on_stable:t.env.Env.on_stable;
  Checkpointing.announce ckpt t.log ~env:t.env ~digest:(fun s ->
      s.SL.state.history)

(* Accept pending slots strictly in sequence order, chaining the history
   digest (speculative execution). *)
let drain_accepts t =
  let advanced =
    SL.drain t.log ~accept:(fun s ->
         match s.SL.batch with
         | Some batch when not s.SL.accepted ->
             s.SL.accepted <- true;
             s.SL.state.history <- extend_history t batch.Batch.digest;
             t.env.Env.accept
               {
                 Rcc_replica.Acceptance.instance = t.env.Env.instance;
                 round = s.SL.round;
                 batch;
                 cert = [ t.lead.Leader.primary; t.env.Env.self ];
                 speculative = true;
                 history = s.SL.state.history;
               };
             true
         | Some _ | None -> false)
  in
  if advanced then advance_ckpt t

(* A certified new view re-ordered [seq] with a different batch than the
   one this replica speculatively accepted — and, accepts being strictly
   in order, possibly executed: the Zyzzyva fork. Retract every
   speculative slot at or above [seq] (each keeps its batch), re-seed the
   history chain from the last surviving slot, tell the execute stage to
   roll its state back (KV undo, ledger truncation), and install the new
   authoritative batch so the drain re-accepts — and re-executes — the
   corrected suffix, orders a rollback above [seq] already repaired
   included.
   Rounds below [Leader.unproven_from] are attested by a commit
   certificate or stable checkpoint: a conflict there means this
   replica's whole prefix lost, which is state transfer's job, not
   rollback's. Returns whether the rollback ran (the new batch only
   installs when it did). *)
let conflict_rollback t ~seq batch =
  if seq >= Leader.unproven_from t.lead then begin
    let reseed =
      if seq = 0 then Some ""
      else
        match SL.find_opt t.log (seq - 1) with
        | Some { SL.accepted = true; state = { history }; _ } -> Some history
        | Some _ | None -> None
    in
    match reseed with
    | None ->
        (* Predecessor slot collected (snapshot jump landed between the
           checkpoint and this conflict): no chain head to rebuild from,
           so leave the repair to state transfer. *)
        false
    | Some h ->
        SL.unwind t.log ~round:seq;
        t.history <- h;
        t.env.Env.rollback ~frontier:seq;
        (slot t seq).SL.batch <- Some batch;
        true
  end
  else false

(* The one path for a slot's authoritative batch, whether the current
   view's primary ordered it or a contract attested it: the same batch
   again changes nothing; an empty slot, or an order the deposed primary
   never got accepted, simply takes it; a different batch where this
   replica already accepted one is the fork [conflict_rollback]
   repairs. *)
let install_order t ~seq batch =
  let s = slot t seq in
  match s.SL.batch with
  | Some prev when prev.Batch.digest = batch.Batch.digest -> ()
  | Some _ when s.SL.accepted ->
      if conflict_rollback t ~seq batch then drain_accepts t
  | Some _ | None ->
      s.SL.batch <- Some batch;
      drain_accepts t

let on_order_request t ~src ~view ~seq batch ~history:_ =
  if src = t.lead.Leader.primary && view = t.lead.Leader.view then
    install_order t ~seq batch

let reorder ?exclude t seq batch =
  t.env.Env.broadcast ?exclude
    (Msg.Order_request
       {
         instance = t.env.Env.instance;
         view = t.lead.Leader.view;
         seq;
         batch;
         history = t.history;
       })

let propose t batch =
  match Ordered_batches.check t.ordered t.log batch with
  | Ordered_batches.Collected -> ()
  | Ordered_batches.Reannounce seq -> reorder t seq batch
  | Ordered_batches.Fresh ->
      let seq = t.lead.Leader.next_seq in
      t.lead.Leader.next_seq <- seq + 1;
      let s = slot t seq in
      s.SL.batch <- Some batch;
      Ordered_batches.record t.ordered batch ~seq;
      let exclude dst = Rcc_replica.Byz.excludes t.env.Env.byz ~round:seq dst in
      reorder ~exclude t seq batch;
      drain_accepts t

let submit_batch t batch = Leader.submit_batch t.lead batch ~propose:(propose t)

(* --- failure detection / view change --------------------------------- *)

(* A commit certificate for a sequence number we never accepted is proof
   (relayed through a retrying client) that the primary skipped us. *)
let on_commit_cert t ~seq ~client ~replicas:_ =
  if seq >= 0 && seq < next_accept t then begin
    let l = t.lead in
    if seq > l.Leader.committed then l.Leader.committed <- seq;
    (* Ack the certificate holder directly: the slot may already be
       collected under a stable checkpoint (the cluster raced far ahead
       of this client), and a certificate of 2f+1 matching responses is
       proof enough that the round both executed and committed. Reading
       the client out of the slot would resurrect an empty slot and
       silently drop the ack, wedging the client into resending a batch
       nobody will re-order. *)
    t.env.Env.respond client
      (Msg.Local_commit { instance = t.env.Env.instance; seq; client })
  end
  else if seq >= next_accept t then
    Leader.detect_failure t.lead ~round:(next_accept t)

(* Finish taking over the instance: re-order in the new view everything
   between our accept frontier and the highest slot we know about,
   hole-filling the rest with nulls. Under RCC this runs after the
   takeover's grace period, once [max_seen] reflects the cluster-wide
   in-flight frontier; standalone it runs at once, and first announces
   the view (the unified takeover already did) so backups adopt the new
   primary even when there is nothing to re-order. *)
let finish_repropose t =
  if not t.env.Env.unified then
    t.env.Env.broadcast
      (Msg.New_view
         {
           instance = t.env.Env.instance;
           view = t.lead.Leader.view;
           reproposals = [];
         });
  for seq = next_accept t to SL.max_seen t.log do
    let s = slot t seq in
    match s.SL.batch with
    | Some batch -> reorder t seq batch
    | None ->
        s.SL.batch <- Some (Batch.null ~round:seq);
        reorder t seq (Batch.null ~round:seq)
  done;
  drain_accepts t

let set_primary t replica ~view =
  Leader.install_view t.lead ~view ~primary:replica
    ~on_install:(fun () -> Ordered_batches.reset t.ordered)
    ~finish:(fun () -> finish_repropose t)
    ~propose:(propose t)

let resign_primary t = Leader.resign_primary t.lead

let on_view_change t ~src ~new_view =
  let l = t.lead in
  if (not t.env.Env.unified) && new_view > l.Leader.view then begin
    let votes = Quorum.Tally.votes l.Leader.vc_votes new_view in
    ignore (Quorum.vote votes src);
    if Quorum.has_weak votes && l.Leader.vc_sent_for < new_view then begin
      Leader.broadcast_view_change l ~round:(next_accept t);
      ignore (Quorum.vote votes t.env.Env.self)
    end;
    if Quorum.has_quorum votes then begin
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
    Ordered_batches.reset t.ordered;
    Held_batches.clear l.Leader.held;
    l.Leader.last_failure_report <- -1;
    List.iter
      (fun (seq, batch) -> on_order_request t ~src ~view ~seq batch ~history:"")
      reproposals
  end

(* --- recovery --------------------------------------------------------- *)

(* An attested order conflicting with a speculative acceptance is the
   same fork as a conflicting re-order, with the same repair. *)
let adopt t ~round batch ~cert:_ = install_order t ~seq:round batch

let proposed_upto t = Leader.proposed_upto t.lead
let max_seen t = SL.max_seen t.log

let on_contract_reply t ~src ~max_seen ~reported =
  Leader.on_contract_reply t.lead ~src ~max_seen ~reported

let fast_forward t ~proof =
  Leader.fast_forward t.lead ~proof;
  (* Re-seed the speculative history chain from the proof's chain head:
     every replica installing this boundary chains identically from here.
     (Never-lagged peers keep their longer chain, so this replica's
     responses stop counting toward speculative certificates — clients
     fall back to the commit-certificate path, a liveness nuance only.) *)
  t.history <- proof.Rcc_storage.Checkpoint_store.state_digest;
  let round = proof.Rcc_storage.Checkpoint_store.seq in
  let l = t.lead in
  if l.Leader.committed < round - 1 then l.Leader.committed <- round - 1

let retained_slots t = Leader.retained_slots t.lead
let checkpoint_log t = Leader.checkpoint_log t.lead

(* The watchdog blames the frontier slot (created on demand so a round we
   only heard about indirectly still gets a stall clock). *)
let start t =
  Leader.start t.lead ~stalled:(fun () ->
      if next_accept t > SL.max_seen t.log then None
      else
        let s = slot t (next_accept t) in
        Some (s.SL.round, s.SL.created_at))

let handle t ~src msg =
  match msg with
  | Msg.Order_request { view; seq; batch; history; _ } ->
      on_order_request t ~src ~view ~seq batch ~history
  | Msg.Commit_cert { cc_seq; cc_client; cc_replicas; _ } ->
      on_commit_cert t ~seq:cc_seq ~client:cc_client ~replicas:cc_replicas
  | Msg.View_change { new_view; _ } -> on_view_change t ~src ~new_view
  | Msg.New_view { view; reproposals; _ } -> on_new_view t ~src ~view reproposals
  | Msg.Checkpoint { seq; state_digest; _ } ->
      Leader.on_checkpoint t.lead ~src ~seq ~digest:state_digest
  | Msg.Pre_prepare _ | Msg.Prepare _ | Msg.Commit _
  | Msg.Client_request _ | Msg.Local_commit _ | Msg.Hs_proposal _
  | Msg.Hs_vote _ | Msg.Response _ | Msg.Contract _ | Msg.Contract_request _
  | Msg.Contract_reply _ | Msg.Instance_change _ | Msg.View_sync _
  | Msg.Snapshot_request _ | Msg.Snapshot_reply _ ->
      ()

let cost_of (costs : Costs.t) msg =
  match msg with
  | Msg.Order_request { batch; _ } ->
      (* Speculative execution leaves no later phase to catch an invalid
         request, so every replica validates the client signature before
         accepting an ordering — unlike PBFT, where the primary's
         batch-threads validate (§6). *)
      costs.Costs.worker_msg + costs.Costs.mac_verify + costs.Costs.sig_verify
      + Costs.hash_cost costs (Batch.size batch)
  | Msg.Commit_cert { cc_replicas; _ } ->
      costs.Costs.worker_msg
      + (costs.Costs.mac_verify * List.length cc_replicas)
  | Msg.View_change _ | Msg.New_view _ | Msg.Local_commit _ | Msg.Checkpoint _ ->
      costs.Costs.worker_msg + costs.Costs.mac_verify
  | Msg.Pre_prepare _ | Msg.Prepare _ | Msg.Commit _
  | Msg.Client_request _ | Msg.Hs_proposal _ | Msg.Hs_vote _ | Msg.Response _
  | Msg.Contract _ | Msg.Contract_request _ | Msg.Contract_reply _
  | Msg.Instance_change _ | Msg.View_sync _ | Msg.Snapshot_request _
  | Msg.Snapshot_reply _ ->
      costs.Costs.worker_msg
