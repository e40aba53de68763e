module Engine = Rcc_sim.Engine
module Msg = Rcc_messages.Msg
module Batch = Rcc_messages.Batch
module Env = Rcc_replica.Instance_env
module SL = Slot_log

(* A unified takeover waiting for its peers' contract replies. *)
type takeover = {
  answers : Quorum.t;  (* who answered, this replica included *)
  mutable reported : int;  (* highest [max_seen] any answer reported *)
  (* round -> the batch an answer reported accepted there, or [None]
     once two answers disagree about it *)
  batches : (int, Batch.t option) Hashtbl.t;
  finish : unit -> unit;
  propose : Batch.t -> unit;
}

type 'a t = {
  env : Env.t;
  log : 'a SL.t;
  certified : bool;
  mutable view : int;
  mutable primary : int;
  mutable next_seq : int;
  mutable holding : bool;
  mutable committed : int;
  vc_votes : Quorum.Tally.t;
  mutable vc_sent_for : int;
  mutable last_failure_report : int;
  ckpt : Checkpointing.t;
  held : Held_batches.t;
  mutable running : bool;
  mutable takeover : takeover option;
}

let create ~certified env log =
  let n = env.Env.n and f = env.Env.f in
  {
    env;
    log;
    certified;
    view = 0;
    primary = env.Env.instance;
    next_seq = 0;
    holding = false;
    committed = -1;
    vc_votes = Quorum.Tally.create ~n ~f;
    vc_sent_for = 0;
    last_failure_report = -1;
    ckpt = Checkpointing.create ~n ~f ~interval:env.Env.checkpoint_interval ();
    held = Held_batches.create ();
    running = false;
    takeover = None;
  }

let is_primary t = t.primary = t.env.Env.self
let proposed_upto t = t.next_seq - 1

let submit_batch t batch ~propose =
  if is_primary t then
    if t.holding then Held_batches.hold t.held batch else propose batch

(* --- failure detection ------------------------------------------------- *)

(* The standalone election counts VIEW-CHANGE votes by their
   authenticated sender, so the message carries no signature; under RCC
   the coordinator signs and broadcasts the accusation instead. *)
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
         signature = "";
       });
  ignore (Quorum.vote (Quorum.Tally.votes t.vc_votes new_view) t.env.Env.self)

let detect_failure ?(on_blame = ignore) t ~round =
  if t.last_failure_report < round then begin
    t.last_failure_report <- round;
    on_blame ();
    if not t.env.Env.unified then broadcast_view_change t ~round;
    t.env.Env.report_failure ~announce:true ~round ~blamed:t.primary
  end

let rec watchdog ~on_blame t ~stalled =
  if t.running then begin
    let timeout = t.env.Env.timeout in
    (match stalled () with
    | Some (round, since) when Engine.now t.env.Env.engine - since > timeout ->
        detect_failure ~on_blame t ~round
    | Some _ | None -> ());
    Engine.schedule_after t.env.Env.engine (timeout / 2) (fun () ->
        watchdog ~on_blame t ~stalled)
  end

let start ?(on_blame = ignore) t ~stalled =
  if not t.running then begin
    t.running <- true;
    Engine.schedule_after t.env.Env.engine t.env.Env.timeout (fun () ->
        watchdog ~on_blame t ~stalled)
  end

(* --- primary installation and takeover --------------------------------- *)

(* How long a new primary waits for peers to vouch for in-flight rounds
   before re-proposing over them, when their answers do not settle it. *)
let recover_grace t = max (Engine.ms 1) (t.env.Env.timeout / 8)

(* A round an answer reported accepted, and that this replica did not
   adopt, was executed by that peer: re-propose its batch there rather
   than a null. Rounds whose answers disagree keep the slot's own batch. *)
let finish_takeover t ~finish ~propose =
  Option.iter
    (fun tk ->
      Hashtbl.iter
        (fun round reported ->
          match reported with
          | Some (b : Batch.t) when round > SL.frontier t.log ->
              let s = SL.get t.log round in
              if not s.SL.accepted then begin
                s.SL.batch <- Some b;
                s.SL.digest <- Some b.Batch.digest
              end
          | Some _ | None -> ())
        tk.batches)
    t.takeover;
  t.takeover <- None;
  t.holding <- false;
  t.next_seq <- max t.next_seq (SL.max_seen t.log + 1);
  finish ();
  Held_batches.flush t.held ~propose;
  (* The other instances kept running while this one was stalled: catch
     up to their horizon now rather than at the next monitor tick, or the
     gap stays for the rest of the run and every round waits on it. *)
  if t.env.Env.unified then
    t.env.Env.null_fill ~proposed_upto:(proposed_upto t) propose

(* The lowest round this replica cannot prove the cluster shares with
   it. Certified protocols (PBFT, CFT) accept a round only on a quorum
   certificate, so their whole accepted prefix is proven. Zyzzyva accepts
   speculatively on the primary's order alone: only a client's commit
   certificate or a stable checkpoint proves a round, and every accepted
   round above both may lose to a view change. *)
let unproven_from t =
  if t.certified then SL.frontier t.log + 1
  else max t.committed (Checkpointing.stable t.ckpt) + 1

(* Under RCC a fresh primary waits for its peers' answers to the view
   install's CONTRACT-REQUEST before proposing. Where an accepted round
   is certified by a quorum (PBFT, CFT), n − f answers prove no accepted
   round is missing once nothing they report lies past this replica's
   [max_seen] or a round they reported, and no two of them disagree on
   a round it has not accepted; the takeover ends there
   ([on_contract_reply]) and re-proposes each reported round with its
   batch. Otherwise — too few or unsettled answers, or Zyzzyva, whose
   speculative rounds a single replica may have executed — it
   re-proposes after the grace period. Standalone protocols have no
   contract machinery and re-propose at once. *)
let take_over t ~finish ~propose =
  if t.env.Env.unified then begin
    if t.certified then begin
      let answers = Quorum.create ~n:t.env.Env.n ~f:t.env.Env.f in
      ignore (Quorum.vote answers t.env.Env.self);
      t.takeover <-
        Some
          {
            answers;
            reported = -1;
            batches = Hashtbl.create 16;
            finish;
            propose;
          }
    end;
    let view = t.view in
    Engine.schedule_after t.env.Env.engine (recover_grace t) (fun () ->
        if t.view = view && is_primary t && t.holding then
          finish_takeover t ~finish ~propose)
  end
  else finish_takeover t ~finish ~propose

(* The answers account for every round they report: none lies past
   what this replica saw or an answer reported, and none still
   unaccepted here is disputed. *)
let settled t tk =
  let covered = ref (SL.max_seen t.log) and disputed = ref false in
  Hashtbl.iter
    (fun round reported ->
      if round > !covered then covered := round;
      if Option.is_none reported then
        match SL.find_opt t.log round with
        | Some { SL.accepted = true; _ } -> ()
        | Some _ | None -> disputed := true)
    tk.batches;
  tk.reported <= !covered && not !disputed

let on_contract_reply t ~src ~max_seen ~reported =
  match t.takeover with
  | Some tk when is_primary t && t.holding ->
      ignore (Quorum.vote tk.answers src);
      if max_seen > tk.reported then tk.reported <- max_seen;
      List.iter
        (fun (round, (b : Batch.t)) ->
          if round > SL.frontier t.log then
            match Hashtbl.find_opt tk.batches round with
            | None -> Hashtbl.replace tk.batches round (Some b)
            | Some (Some b') when not (String.equal b'.Batch.digest b.Batch.digest) ->
                Hashtbl.replace tk.batches round None
            | Some _ -> ())
        reported;
      if Quorum.has_all_but_f tk.answers && settled t tk then
        finish_takeover t ~finish:tk.finish ~propose:tk.propose
  | Some _ | None -> ()

let install_view t ~view ~primary ~on_install ~finish ~propose =
  t.view <- view;
  t.primary <- primary;
  t.holding <- false;
  t.takeover <- None;
  on_install ();
  (* Held batches flush at the end of the takeover if this replica leads
     the new view; a backup must not sit on them — its clients' requests
     are the new primary's job. *)
  if primary <> t.env.Env.self then Held_batches.clear t.held;
  t.last_failure_report <- -1;
  Quorum.Tally.prune t.vc_votes ~upto:view;
  let leads = is_primary t in
  (* A replica cut off from the instance (partition, dark attack) knows
     neither how far the deposed primary ran nor whether the rounds it
     accepted without proof survive: peers may have accepted — or
     executed — other batches there. Under RCC a new primary holds and
     announces the view at once, so backups adopt it; then the install
     asks the peers once for the instance's rounds from the repair floor
     (§3.3 state exchange): always on the new primary, and on a backup
     holding accepted rounds from the floor on, so that a conflicting
     adopted round rolls its speculative suffix back. *)
  if t.env.Env.unified then begin
    if leads then begin
      t.holding <- true;
      t.env.Env.broadcast
        (Msg.New_view
           { instance = t.env.Env.instance; view; reproposals = [] })
    end;
    let round = unproven_from t in
    if leads || SL.frontier t.log >= round then
      t.env.Env.broadcast
        (Msg.Contract_request { round; instance = t.env.Env.instance })
  end;
  if leads then take_over t ~finish ~propose

(* The lost incarnation may have proposed rounds past the durable
   frontier; re-assigning them would equivocate. *)
let resign_primary t = if is_primary t then t.holding <- true

(* --- checkpoints and snapshots ----------------------------------------- *)

let on_checkpoint t ~src ~seq ~digest =
  Checkpointing.on_vote t.ckpt t.log ~src ~seq ~digest
    ~on_stable:t.env.Env.on_stable

let fast_forward t ~proof =
  let round = proof.Rcc_storage.Checkpoint_store.seq in
  SL.fast_forward t.log ~round;
  Checkpointing.install t.ckpt proof;
  if t.next_seq < round then t.next_seq <- round

let retained_slots t = SL.retained_slots t.log
let checkpoint_log t = Checkpointing.log t.ckpt
