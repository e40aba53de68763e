module Engine = Rcc_sim.Engine
module Costs = Rcc_sim.Costs
module Msg = Rcc_messages.Msg
module Batch = Rcc_messages.Batch
module Bitset = Rcc_common.Bitset
module Env = Rcc_replica.Instance_env
module SL = Rcc_proto_core.Slot_log
module Quorum = Rcc_proto_core.Quorum
module Checkpointing = Rcc_proto_core.Checkpointing

let skip_phase = 9

(* Protocol-specific slot state; batch / digest / accepted (= decided)
   live in the shared {!Rcc_proto_core.Slot_log}. *)
type hs = {
  votes : Quorum.t array;  (* leader side, phases 0-2 *)
  mutable phase_sent : int;  (* leader: highest phase broadcast *)
  mutable voted_upto : int;  (* replica: highest phase voted *)
  skip_votes : Quorum.t;
  mutable skip_voted : bool;
  mutable stall_since : Engine.time;  (* frontier arrival time *)
}

type t = {
  env : Env.t;
  mutable next_propose : int;  (* next seq in our residue class *)
  log : hs SL.t;  (* frontier = next_decide - 1: the execution frontier *)
  blacklist : Bitset.t;
  mutable last_skip : Engine.time;  (* most recent successful skip *)
  ckpt : Checkpointing.t;
  mutable running : bool;
}

let create env =
  let n = env.Env.n and f = env.Env.f in
  {
    env;
    next_propose = env.Env.self;
    log =
      SL.create ~tag:(env.Env.self, env.Env.instance) ~engine:env.Env.engine
        ~init:(fun _ ->
          {
            votes = Array.init 3 (fun _ -> Quorum.create ~n ~f);
            phase_sent = -1;
            voted_upto = -1;
            skip_votes = Quorum.create ~n ~f;
            skip_voted = false;
            stall_since = Engine.now env.Env.engine;
          })
        ();
    blacklist = Bitset.create env.Env.n;
    last_skip = min_int / 2;
    ckpt = Checkpointing.create ~n ~f ~interval:env.Env.checkpoint_interval ();
    running = false;
  }

let leader_of t seq = seq mod t.env.Env.n
let next_decide t = SL.frontier t.log + 1
let decided_upto t = SL.frontier t.log
let blacklisted t r = Bitset.mem t.blacklist r

(* The instance interface's notion of primary: ourselves (every replica
   leads its own residue class). *)
let primary t = t.env.Env.self
let slot t seq = SL.get t.log seq
let hs (s : hs SL.slot) = s.SL.state

(* Consecutive failures accelerate the pacemaker: shortly after a
   successful skip, a stalled frontier is re-suspected after timeout/8
   instead of a full timeout (PBFT's growing-view-change analogue, in the
   other direction: we expect a batch of dead leaders at once). *)
let stall_threshold t =
  if Engine.now t.env.Env.engine - t.last_skip < 2 * t.env.Env.timeout then
    t.env.Env.timeout / 8
  else t.env.Env.timeout

let decide t s null =
  if not s.SL.accepted then begin
    s.SL.accepted <- true;
    let batch =
      match (null, s.SL.batch) with
      | false, Some b -> b
      | true, _ | false, None -> Batch.null ~round:s.SL.round
    in
    t.env.Env.accept
      {
        Rcc_replica.Acceptance.instance = 0;
        round = s.SL.round;
        batch;
        cert = Quorum.to_list (hs s).votes.(2);
        speculative = false;
        history = "";
      }
  end

(* --- checkpointing ---------------------------------------------------- *)

(* Decided slots covered by a stable checkpoint are no longer needed:
   contracts are built from the execute stage's record. The vote
   digest is the decided batch digest at the boundary round. *)
let advance_ckpt t =
  Checkpointing.try_stabilize t.ckpt t.log ~on_stable:t.env.Env.on_stable;
  Checkpointing.announce t.ckpt t.log ~env:t.env ~digest:(fun s ->
      Option.value s.SL.digest ~default:"")

let on_checkpoint t ~src seq digest =
  Checkpointing.on_vote t.ckpt t.log ~src ~seq ~digest
    ~on_stable:t.env.Env.on_stable

(* Advance the frontier; blacklisted leaders' pending rounds are skip-voted
   without waiting for the timeout. *)
let rec advance_frontier t =
  if SL.drain t.log ~accept:(fun s -> s.SL.accepted) then advance_ckpt t;
  let nd = next_decide t in
  if nd <= SL.max_seen t.log then begin
    let s = slot t nd in
    (hs s).stall_since <- min (hs s).stall_since (Engine.now t.env.Env.engine);
    maybe_auto_skip t s
  end

and send_skip_vote t s =
  if not (hs s).skip_voted then begin
    (hs s).skip_voted <- true;
    ignore (Quorum.vote (hs s).skip_votes t.env.Env.self);
    t.env.Env.broadcast ~sign:true
      (Msg.Hs_vote { view = 0; phase = skip_phase; seq = s.SL.round; digest = "" });
    check_skip t s
  end

and check_skip t s =
  if (not s.SL.accepted) && Quorum.has_all_but_f (hs s).skip_votes then begin
    Bitset.add t.blacklist (leader_of t s.SL.round) |> ignore;
    t.last_skip <- Engine.now t.env.Env.engine;
    decide t s true;
    advance_frontier t;
    eager_skip t
  end

and maybe_auto_skip t s =
  if (not s.SL.accepted) && Bitset.mem t.blacklist (leader_of t s.SL.round)
  then send_skip_vote t s

(* Skip-vote every known round of a blacklisted leader at once, rather than
   paying a round trip per round as each reaches the frontier. *)
and eager_skip t =
  let horizon = min (SL.max_seen t.log) (next_decide t + 2048) in
  for seq = next_decide t to horizon do
    if Bitset.mem t.blacklist (leader_of t seq) then begin
      let s = slot t seq in
      if not s.SL.accepted then send_skip_vote t s
    end
  done

(* --- leader side ------------------------------------------------------ *)

let broadcast_phase t s phase =
  if (hs s).phase_sent < phase then begin
    (hs s).phase_sent <- phase;
    let batch = if phase = 0 then s.SL.batch else None in
    let digest = Option.value ~default:"" s.SL.digest in
    t.env.Env.broadcast ~sign:true
      (Msg.Hs_proposal { view = 0; phase; seq = s.SL.round; batch; digest });
    if phase = 3 then begin
      (* The leader's own decide: it does not receive its broadcasts. *)
      decide t s false;
      advance_frontier t
    end
  end

let on_vote t ~src ~phase ~seq =
  if phase = skip_phase then begin
    let s = slot t seq in
    ignore (Quorum.vote (hs s).skip_votes src);
    (* Join a skip that another replica initiated if we too see the round
       stalled: its leader is blacklisted, or it is our frontier round and
       has been stuck for at least half the timeout. *)
    let stalled =
      Bitset.mem t.blacklist (leader_of t seq)
      || (seq = next_decide t
         && Engine.now t.env.Env.engine - (hs s).stall_since
            > stall_threshold t / 2)
    in
    if (not s.SL.accepted) && seq >= next_decide t && stalled then
      send_skip_vote t s;
    check_skip t s
  end
  else if phase >= 0 && phase < 3 then begin
    let s = slot t seq in
    if leader_of t seq = t.env.Env.self && not s.SL.accepted then begin
      ignore (Quorum.vote (hs s).votes.(phase) src);
      if Quorum.has_all_but_f (hs s).votes.(phase) && (hs s).phase_sent = phase
      then broadcast_phase t s (phase + 1)
    end
  end

let submit_batch t batch =
  let seq = t.next_propose in
  t.next_propose <- seq + t.env.Env.n;
  let s = slot t seq in
  s.SL.batch <- Some batch;
  s.SL.digest <- Some batch.Batch.digest;
  (* Leader votes for itself in every phase. *)
  Array.iter (fun v -> ignore (Quorum.vote v t.env.Env.self)) (hs s).votes;
  broadcast_phase t s 0

(* --- replica side ----------------------------------------------------- *)

let on_proposal t ~src ~phase ~seq batch digest =
  if src = leader_of t seq && phase >= 0 && phase <= 3 then begin
    let s = slot t seq in
    (match batch with
    | Some b when Option.is_none s.SL.batch ->
        s.SL.batch <- Some b;
        s.SL.digest <- Some b.Batch.digest
    | Some _ | None -> ());
    if Option.is_none s.SL.digest then s.SL.digest <- Some digest;
    if phase < 3 then begin
      if (hs s).voted_upto < phase then begin
        (hs s).voted_upto <- phase;
        t.env.Env.send ~sign:true ~dst:src
          (Msg.Hs_vote
             {
               view = 0;
               phase;
               seq;
               digest = Option.value ~default:"" s.SL.digest;
             })
      end
    end
    else begin
      decide t s false;
      advance_frontier t
    end
  end

(* --- pacemaker -------------------------------------------------------- *)

let rec watchdog t =
  if t.running then begin
    (if next_decide t <= SL.max_seen t.log then
       let s = slot t (next_decide t) in
       if
         (not s.SL.accepted)
         && Engine.now t.env.Env.engine - (hs s).stall_since
            > stall_threshold t
       then send_skip_vote t s);
    eager_skip t;
    Engine.schedule_after t.env.Env.engine
      (max 1 (t.env.Env.timeout / 8))
      (fun () -> watchdog t)
  end

let start t =
  if not t.running then begin
    t.running <- true;
    Engine.schedule_after t.env.Env.engine t.env.Env.timeout (fun () -> watchdog t)
  end

(* --- instance interface ----------------------------------------------- *)

let set_primary _ _ ~view:_ = ()

let adopt t ~round batch ~cert =
  let s = slot t round in
  if not s.SL.accepted then begin
    s.SL.batch <- Some batch;
    List.iter (fun r -> ignore (Quorum.vote (hs s).votes.(2) r)) cert;
    decide t s false;
    advance_frontier t
  end

(* HotStuff has its own skip-based pacemaker; opt out of the RCC
   null-batch heartbeat. *)
let proposed_upto _ = max_int

let max_seen t = SL.max_seen t.log

(* No primary takes over: nothing waits on contract replies. *)
let on_contract_reply _ ~src:_ ~max_seen:_ ~reported:_ = ()

(* Rotating leadership: proposals derive from the vote chain, not a
   volatile per-primary sequence counter, so a restarted replica has
   nothing stale to resign. *)
let resign_primary _ = ()

let fast_forward t ~proof =
  let round = proof.Rcc_storage.Checkpoint_store.seq in
  SL.fast_forward t.log ~round;
  Checkpointing.install t.ckpt proof;
  (* Resume proposing in our residue class at or above the boundary. *)
  if t.next_propose < round then begin
    let n = t.env.Env.n in
    let residue = (((t.env.Env.self - round) mod n) + n) mod n in
    t.next_propose <- round + residue
  end

let retained_slots t = SL.retained_slots t.log
let checkpoint_log t = Checkpointing.log t.ckpt

let handle t ~src msg =
  match msg with
  | Msg.Hs_proposal { phase; seq; batch; digest; _ } ->
      on_proposal t ~src ~phase ~seq batch digest
  | Msg.Hs_vote { phase; seq; _ } -> on_vote t ~src ~phase ~seq
  | Msg.Checkpoint { seq; state_digest; _ } -> on_checkpoint t ~src seq state_digest
  | Msg.Pre_prepare _ | Msg.Prepare _ | Msg.Commit _
  | Msg.View_change _ | Msg.New_view _ | Msg.Order_request _
  | Msg.Commit_cert _ | Msg.Local_commit _ | Msg.Client_request _
  | Msg.Response _ | Msg.Contract _ | Msg.Contract_request _
  | Msg.Contract_reply _ | Msg.Instance_change _ | Msg.View_sync _
  | Msg.Snapshot_request _ | Msg.Snapshot_reply _ ->
      ()

let cost_of (costs : Costs.t) msg =
  match msg with
  | Msg.Hs_proposal { phase; batch; _ } ->
      (* Verify the leader's signature, plus (from PRE-COMMIT onward) the
         carried quorum certificate. Matching the paper's optimistic
         HotStuff setup — no threshold signatures — certificate checking
         costs a few individual verifications rather than n - f. *)
      let qc = if phase > 0 then 3 else 0 in
      costs.Costs.worker_msg + ((1 + qc) * costs.Costs.sig_verify)
      + (match batch with
        | Some b -> Costs.hash_cost costs (Batch.size b)
        | None -> 0)
  | Msg.Hs_vote _ -> costs.Costs.worker_msg + costs.Costs.sig_verify
  | Msg.Checkpoint _ -> costs.Costs.worker_msg + costs.Costs.mac_verify
  | Msg.Pre_prepare _ | Msg.Prepare _ | Msg.Commit _
  | Msg.View_change _ | Msg.New_view _ | Msg.Order_request _
  | Msg.Commit_cert _ | Msg.Local_commit _ | Msg.Client_request _
  | Msg.Response _ | Msg.Contract _ | Msg.Contract_request _
  | Msg.Contract_reply _ | Msg.Instance_change _ | Msg.View_sync _
  | Msg.Snapshot_request _ | Msg.Snapshot_reply _ ->
      costs.Costs.worker_msg
