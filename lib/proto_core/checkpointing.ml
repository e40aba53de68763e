module Store = Rcc_storage.Checkpoint_store

type t = {
  interval : int;
  votes : Quorum.Tally.t;  (* seq -> attesters *)
  digests : (int, string) Hashtbl.t;  (* first digest seen per seq *)
  log : Store.t;
  mutable stable : int;
  mutable provable : int;  (* highest seq with f+1 votes *)
}

let create ~n ~f ~interval () =
  {
    interval;
    votes = Quorum.Tally.create ~n ~f;
    digests = Hashtbl.create 8;
    log = Store.create ();
    stable = -1;
    provable = -1;
  }

let stable t = t.stable
let log t = t.log

let due t log =
  let exec_upto = Slot_log.frontier log in
  if t.interval <= 0 then None
  else
    let target = exec_upto - (exec_upto mod t.interval) in
    if target > t.stable && target > 0 then Some target else None

(* The one checkpoint announcement: a CHECKPOINT vote for the boundary
   [due] names, carrying the protocol's digest of that boundary's slot
   ("" once the slot is gone). *)
let announce t log ~(env : Rcc_replica.Instance_env.t) ~digest =
  match due t log with
  | Some seq ->
      let state_digest =
        match Slot_log.find_opt log seq with Some s -> digest s | None -> ""
      in
      env.broadcast
        (Rcc_messages.Msg.Checkpoint
           { instance = env.instance; seq; state_digest })
  | None -> ()

(* The one place the stability rule lives: a checkpoint becomes stable
   only once the accept frontier covers it, and a newly stable round [s]
   collects every slot below it before being reported upward. *)
let try_stabilize t log ~on_stable =
  if t.provable > t.stable && t.provable <= Slot_log.frontier log then begin
    t.stable <- t.provable;
    (match Quorum.Tally.find_opt t.votes t.stable with
    | Some votes ->
        Store.record t.log
          {
            Store.seq = t.stable;
            state_digest =
              Option.value ~default:"" (Hashtbl.find_opt t.digests t.stable);
            attesters = Quorum.to_list votes;
          }
    | None -> ());
    Quorum.Tally.prune t.votes ~upto:(t.stable - 1);
    Hashtbl.filter_map_inplace
      (fun seq d -> if seq <= t.stable - 1 then None else Some d)
      t.digests;
    Slot_log.gc_upto log (t.stable - 1);
    on_stable ~seq:t.stable
  end

(* Adopt a checkpoint this replica just INSTALLED (state transfer) rather
   than voted to stability: record the transferred proof and drop every
   vote and digest the snapshot already covers. Unlike [try_stabilize],
   the boundary needs no local votes — its authority is the f+1-attested
   snapshot the caller verified. *)
let install t (proof : Store.proof) =
  if proof.Store.seq > t.stable then begin
    t.stable <- proof.Store.seq;
    if t.provable < t.stable then t.provable <- t.stable;
    Store.record t.log proof;
    Quorum.Tally.prune t.votes ~upto:(t.stable - 1);
    Hashtbl.filter_map_inplace
      (fun seq d -> if seq <= t.stable - 1 then None else Some d)
      t.digests
  end

let on_vote t log ~src ~seq ~digest ~on_stable =
  if seq > t.stable then begin
    if not (Hashtbl.mem t.digests seq) then Hashtbl.replace t.digests seq digest;
    let votes = Quorum.Tally.votes t.votes seq in
    (* A checkpoint only becomes stable locally once this replica holds
       the state it covers (seq <= the accept frontier); a replica kept in
       the dark must keep its incomplete slots so the watchdog can blame
       the primary instead of silently skipping the round. *)
    if Quorum.vote votes src && Quorum.has_weak votes then begin
      if seq > t.provable then t.provable <- seq;
      try_stabilize t log ~on_stable
    end
  end
