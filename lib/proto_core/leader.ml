module Engine = Rcc_sim.Engine
module Msg = Rcc_messages.Msg
module Env = Rcc_replica.Instance_env
module SL = Slot_log

(* A unified takeover waiting for its peers' contract replies. *)
type takeover = {
  answers : Quorum.t;  (* who answered, this replica included *)
  mutable reported : int;  (* highest [max_seen] any answer reported *)
  finish : unit -> unit;
  propose : Rcc_messages.Batch.t -> unit;
}

type 'a t = {
  env : Env.t;
  log : 'a SL.t;
  certified : bool;
  mutable view : int;
  mutable primary : int;
  mutable next_seq : int;
  mutable holding : bool;
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

let finish_takeover t ~finish ~propose =
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

(* A primary taking over an instance it was cut off from (partition, dark
   attack) does not know how far the deposed primary ran: peers may have
   accepted — or executed — rounds past this replica's [max_seen], and
   proposing a fresh batch or a null at such a round forks the instance.
   Under RCC it therefore announces the view at once, so backups adopt
   the new primary, and asks its peers for the instance's in-flight
   frontier (§3.3 state exchange; every peer answers with this instance's
   contiguous window above the requested round and its own [max_seen]).
   Where an accepted round is certified by a quorum (PBFT, CFT), n − f
   answers that report nothing past this replica's [max_seen] once their
   windows are adopted prove no accepted round is missing, and the
   takeover ends there ([on_contract_reply]). Otherwise — too few or
   unsettled answers, or Zyzzyva, whose speculative rounds a single
   replica may have executed — it re-proposes after the grace period.
   Standalone protocols have no contract machinery and re-propose at
   once. *)
let take_over t ~finish ~propose =
  if t.env.Env.unified then begin
    t.holding <- true;
    t.env.Env.broadcast
      (Msg.New_view
         { instance = t.env.Env.instance; view = t.view; reproposals = [] });
    t.env.Env.broadcast
      (Msg.Contract_request
         { round = SL.frontier t.log + 1; instance = t.env.Env.instance });
    if t.certified then begin
      let answers = Quorum.create ~n:t.env.Env.n ~f:t.env.Env.f in
      ignore (Quorum.vote answers t.env.Env.self);
      t.takeover <- Some { answers; reported = -1; finish; propose }
    end;
    let view = t.view in
    Engine.schedule_after t.env.Env.engine (recover_grace t) (fun () ->
        if t.view = view && is_primary t && t.holding then
          finish_takeover t ~finish ~propose)
  end
  else finish_takeover t ~finish ~propose

let on_contract_reply t ~src ~max_seen =
  match t.takeover with
  | Some tk when is_primary t && t.holding ->
      ignore (Quorum.vote tk.answers src);
      if max_seen > tk.reported then tk.reported <- max_seen;
      if Quorum.has_all_but_f tk.answers && tk.reported <= SL.max_seen t.log
      then finish_takeover t ~finish:tk.finish ~propose:tk.propose
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
  if is_primary t then take_over t ~finish ~propose

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

let log_stats t = (SL.retained_slots t.log, SL.live_words t.log)
let checkpoint_log t = Checkpointing.log t.ckpt
