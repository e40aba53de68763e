open Rcc_common.Ids
module Engine = Rcc_sim.Engine
module Msg = Rcc_messages.Msg
module Bitset = Rcc_common.Bitset
module Exec = Rcc_replica.Exec
module Acceptance = Rcc_replica.Acceptance
module Metrics = Rcc_replica.Metrics
module Keychain = Rcc_crypto.Keychain
module Signature = Rcc_crypto.Signature

type recovery_mode = Optimistic | Pessimistic | View_shift

type instance_handle = {
  h_set_primary : replica_id -> view:view -> unit;
  h_adopt : round:round -> Rcc_messages.Batch.t -> witnesses:int list -> unit;
  h_answered :
    src:replica_id ->
    max_seen:round ->
    reported:(round * Rcc_messages.Batch.t) list ->
    unit;
  h_max_seen : unit -> round;
  h_primary : unit -> replica_id;
}

type config = {
  n : int;
  f : int;
  z : int;
  self : replica_id;
  collusion_wait : Rcc_sim.Engine.time;
  recovery : recovery_mode;
}

type t = {
  cfg : config;
  engine : Engine.t;
  keychain : Keychain.t;
  handles : instance_handle array;
  exec : Exec.t;
  metrics : Metrics.t;
  broadcast : ?size:int -> Msg.t -> unit;
  send : ?size:int -> dst:replica_id -> Msg.t -> unit;
  primaries : replica_id array;
  (* [primaries] as a list, rebuilt only when a primary is seated: every
     executed round's block and journal record stores it, and they all
     share this one. *)
  mutable primaries_list : replica_id list;
  views : int array;
  kmal : Bitset.t;
  blames : Bitset.t array;  (* per instance: distinct accusers of its primary *)
  blame_round : int array;  (* lowest blamed round per instance; max_int if none *)
  (* Per instance, per accuser: the (round, signature) of its counted
     blame at the current view — the raw material for replacement
     certificates. Rows clear together with [blames]. *)
  blame_sigs : (round * string) option array array;
  (* Per instance: the f+1 blame-quorum evidence behind the latest view
     step (certifies views.(x) - 1 -> views.(x)); shipped with every
     View_sync so lagging replicas adopt on proof, not trust. *)
  certs : Msg.blame_vote list array;
  stale_accusers : Bitset.t;  (* accusers of rounds we already executed *)
  mutable pending_replace : (round * instance_id) list;  (* sorted *)
  mutable collusion_armed : bool;  (* an evaluation is scheduled *)
  mutable replacements : int;
  mutable shifts : int;
  contracts : Contract.tally;  (* peers' reports of contract entries *)
}

let create cfg ~engine ~keychain ~handles ~exec ~metrics ~broadcast ~send =
  assert (Array.length handles = cfg.z);
  let primaries = Array.init cfg.z (fun x -> (handles.(x)).h_primary ()) in
  {
    cfg;
    engine;
    keychain;
    handles;
    exec;
    metrics;
    broadcast;
    send;
    primaries;
    primaries_list = Array.to_list primaries;
    views = Array.make cfg.z 0;
    kmal = Bitset.create cfg.n;
    blames = Array.init cfg.z (fun _ -> Bitset.create cfg.n);
    blame_round = Array.make cfg.z max_int;
    blame_sigs = Array.init cfg.z (fun _ -> Array.make cfg.n None);
    certs = Array.make cfg.z [];
    stale_accusers = Bitset.create cfg.n;
    pending_replace = [];
    collusion_armed = false;
    replacements = 0;
    shifts = 0;
    contracts = Contract.tally ~n:cfg.n ~f:cfg.f ~z:cfg.z ~self:cfg.self;
  }

let trace t ~instance payload =
  Engine.trace t.engine ~replica:t.cfg.self ~instance payload

let primaries t = t.primaries_list
let primary_of t x = t.primaries.(x)
let view_of t x = t.views.(x)
let cert_of t x = t.certs.(x)
let known_malicious t = Bitset.to_list t.kmal
let replacements t = t.replacements

(* What a blame signature commits to. Binding the view being left (not
   just the blamed replica) is what makes certificates replay-proof: the
   rotation pool wraps, so a quorum that deposed replica [p] at view
   v -> v+1 must not double as evidence for the later step that deposes
   [p] again after the wrap. *)
let blame_digest ~instance ~view ~blamed ~round =
  Printf.sprintf "vc|%d|%d|%d|%d" instance view blamed round

let sign_blame keychain ~signer ~instance ~view ~blamed ~round =
  Signature.sign
    (Keychain.replica_secret keychain signer)
    (blame_digest ~instance ~view ~blamed ~round)

(* This replica's batch and certifiers for instance [x]'s round [r]:
   what the execute stage holds, buffered or executed. *)
let accepted t ~round ~instance =
  Option.map
    (fun (a : Acceptance.t) -> (a.batch, a.cert))
    (Exec.accepted t.exec ~round ~instance)

(* --- unified replacement (§3.4.2) -------------------------------------- *)

let clear_blames t x =
  Bitset.clear t.blames.(x);
  Array.fill t.blame_sigs.(x) 0 t.cfg.n None;
  t.blame_round.(x) <- max_int

(* Seat [primary] at [view] on instance [x], counting [replaced] primary
   replacements: the one step behind a blame quorum, an adopted
   [View_sync] and a view shift. The instance's blames are about the
   primary it leaves, so they go with it. *)
let install_view t x ~view ~primary ~replaced =
  t.replacements <- t.replacements + replaced;
  for _ = 1 to replaced do
    Metrics.record_view_change ~instance:x t.metrics
  done;
  t.views.(x) <- view;
  t.primaries.(x) <- primary;
  t.primaries_list <- Array.to_list t.primaries;
  if Engine.tracing t.engine then
    trace t ~instance:x (Rcc_trace.Event.Primary_change { primary; view });
  clear_blames t x;
  (t.handles.(x)).h_set_primary primary ~view

(* Deterministic primary rotation: instance [x] draws its primaries from
   the residue class {r | r mod z = x}, in ascending order, starting at
   [x] itself (the view-0 primary). The classes are disjoint, so two
   instances can never share a primary, and — crucially — (instance,
   view) alone determines the primary. Replicas that conclude the same
   replacement from different local blame histories, or that adopt it
   later via [View_sync], land on the same choice without agreeing on
   anything else first. A deposed primary re-enters the rotation once
   the class wraps around (as in PBFT); if it is still faulty it is
   simply blamed and replaced again. *)
let primary_for cfg ~instance ~view =
  let pool_len = (cfg.n - instance + cfg.z - 1) / cfg.z in
  instance + (view mod pool_len) * cfg.z

(* Handle [(r, x)]: only once every other instance has either replicated
   round [r] or is itself awaiting replacement. *)
let can_handle t (r, x) =
  let awaiting y = List.exists (fun (_, x') -> x' = y) t.pending_replace in
  let replicated y =
    r < Exec.next_round t.exec
    || Option.is_some (Exec.accepted t.exec ~round:r ~instance:y)
  in
  let rec check y =
    y >= t.cfg.z || ((y = x || replicated y || awaiting y) && check (y + 1))
  in
  check 0

let rec process_replacements t =
  match t.pending_replace with
  | [] -> ()
  | (r, _x) :: rest when r < Exec.next_round t.exec ->
      (* The stall this replacement answers has been cured (execution
         passed the blamed round, via heal or contract adoption) while
         the entry sat parked behind the §3.4.2 ordering condition.
         Replacing now would act on evidence of a problem that no longer
         exists — and at wildly different times on different replicas. *)
      t.pending_replace <- rest;
      process_replacements t
  | ((_r, x) as entry) :: rest when can_handle t entry ->
      let deposed = t.primaries.(x) in
      Bitset.add t.kmal deposed |> ignore;
      t.pending_replace <- rest;
      (* Snapshot the blame quorum before [clear_blames] wipes it: these
         f+1 authenticated accusations are the certificate that lets a
         lagging replica verify this view step later. *)
      let votes = ref [] in
      Bitset.iter t.blames.(x) (fun src ->
          match t.blame_sigs.(x).(src) with
          | Some (round, s) ->
              votes :=
                { Msg.bv_accuser = src; bv_round = round; bv_sig = s } :: !votes
          | None -> ());
      t.certs.(x) <- List.rev !votes;
      if Engine.tracing t.engine then
        trace t ~instance:x (Rcc_trace.Event.Kmal { culprit = deposed });
      let view = t.views.(x) + 1 in
      install_view t x ~view ~primary:(primary_for t.cfg ~instance:x ~view)
        ~replaced:1;
      process_replacements t
  | _ :: _ -> ()

let enqueue_replacement t ~instance ~round =
  if not (List.exists (fun (_, x) -> x = instance) t.pending_replace) then begin
    t.pending_replace <-
      List.sort compare ((round, instance) :: t.pending_replace);
    process_replacements t
  end

(* --- collusion detection (§3.4.3) --------------------------------------- *)

let distinct_accusers t =
  let seen = Bitset.create t.cfg.n in
  Array.iter (fun b -> Bitset.iter b (fun r -> Bitset.add seen r |> ignore)) t.blames;
  Bitset.iter t.stale_accusers (fun r -> Bitset.add seen r |> ignore);
  Bitset.count seen

let stalled_rounds t =
  (* Rounds named in blames, oldest first, capped to a small window. *)
  let rounds =
    Array.to_list t.blame_round
    |> List.filter (fun r -> r <> max_int)
    |> List.sort_uniq compare
  in
  match rounds with [] -> [ Exec.next_round t.exec ] | _ -> rounds

let broadcast_contract t ~round =
  let contract =
    Contract.build ~round
      ~accepted:(fun x -> accepted t ~round ~instance:x)
      ~z:t.cfg.z
  in
  if contract.Contract.entries <> [] then begin
    let msg = Contract.to_msg contract in
    let size = Contract.size contract in
    Metrics.record_contract_bytes t.metrics size;
    if Engine.tracing t.engine then
      trace t ~instance:(-1)
        (Rcc_trace.Event.Contract_sent
           {
             round;
             entries = List.length contract.Contract.entries;
             bytes = size;
           });
    t.broadcast ~size msg
  end

let view_shift t =
  (* Deterministically move to the next set of z primaries (§3.4.3(3)).
     All instances restart under fresh primaries, so even healthy ones
     lose continuous ordering — the cost the paper rejects. *)
  t.shifts <- t.shifts + 1;
  let base = t.shifts * t.cfg.z in
  (* [taken] keeps the fresh set disjoint: skipping only known-malicious
     candidates lets two instances land on the same pick (n=4, z=2,
     kmal={2}: both collapse onto 3), violating the one-primary-per-
     instance structure. Past [k >= n] every candidate was rejected as
     malicious, so the malice filter is dropped (disjointness never is)
     to guarantee termination. *)
  let taken = Bitset.create t.cfg.n in
  for x = 0 to t.cfg.z - 1 do
    let rec pick k =
      let candidate = (base + x + k) mod t.cfg.n in
      if
        Bitset.mem taken candidate
        || (k < t.cfg.n && Bitset.mem t.kmal candidate)
      then pick (k + 1)
      else candidate
    in
    let fresh = pick 0 in
    Bitset.add taken fresh |> ignore;
    install_view t x ~view:(t.views.(x) + 1) ~primary:fresh ~replaced:0
  done

let on_collusion_detected t =
  Metrics.record_collusion_detected t.metrics;
  if Engine.tracing t.engine then trace t ~instance:(-1) Rcc_trace.Event.Collusion;
  match t.cfg.recovery with
  | Optimistic | Pessimistic ->
      List.iter (fun round -> broadcast_contract t ~round) (stalled_rounds t)
  | View_shift -> view_shift t

let collusion_pending t = t.collusion_armed

let rec arm_collusion_timer t =
  if not t.collusion_armed then begin
    t.collusion_armed <- true;
    Engine.schedule_after t.engine t.cfg.collusion_wait (fun () ->
        evaluate_collusion t)
  end

and evaluate_collusion t =
  t.collusion_armed <- false;
  let strongest = Array.fold_left (fun m b -> max m (Bitset.count b)) 0 t.blames in
  let accusers = distinct_accusers t in
  if accusers >= t.cfg.f + 1 && strongest < t.cfg.f + 1 then begin
    (* f+1 replicas complain, yet no primary has f+1 accusers: the
       evidence cannot come from a single failed primary. *)
    on_collusion_detected t;
    Array.iteri (fun x _ -> clear_blames t x) t.blames;
    Bitset.clear t.stale_accusers
  end
  else begin
    (* Inconclusive: this window's stale accusers expire with it. A
       replica catching up after a crash goes briefly stale at everyone;
       if that mark never aged out, months of unrelated catch-ups would
       accumulate until any single fresh blame tipped the count over f+1
       — a phantom collusion no quorum ever witnessed at once. A
       genuinely stuck Example 3.3 victim keeps re-blaming every replica
       timeout, so its evidence re-enters the next window on its own. *)
    Bitset.clear t.stale_accusers;
    let fresh = Array.exists (fun b -> Bitset.count b > 0) t.blames in
    if fresh && strongest < t.cfg.f + 1 then arm_collusion_timer t
  end

(* --- evidence intake ----------------------------------------------------- *)

(* This replica's certified view of [instance], for a peer that missed
   the step (a blame naming a deposed primary, a contract request) and
   for the heartbeat's anti-entropy gossip. *)
let view_sync t x =
  Msg.View_sync
    {
      instance = x;
      view = t.views.(x);
      primary = t.primaries.(x);
      kmal = Bitset.to_list t.kmal;
      cert = t.certs.(x);
    }

let send_view_sync t ~dst x =
  let msg = view_sync t x in
  t.send ~size:(Msg.size msg) ~dst msg

(* Periodic anti-entropy: replicas that were crashed or partitioned
   through a replacement's blame quorum hold stale views until something
   reminds them. Blame-triggered syncs only fire while traffic is
   unhealthy, so the heartbeat also gossips any non-initial views. *)
let gossip_views t =
  for x = 0 to t.cfg.z - 1 do
    if t.views.(x) > 0 then begin
      let msg = view_sync t x in
      t.broadcast ~size:(Msg.size msg) msg
    end
  done

(* Count the accusation a VIEW-CHANGE carries: [src]'s, whose signature
   the caller verified, or this replica's own, which it just made. *)
let count_blame t ~src (msg : Msg.t) =
  match msg with
  | View_change { instance; new_view; blamed; round; signature; _ } ->
      if Engine.tracing t.engine then
        trace t ~instance
          (Rcc_trace.Event.Blame { round; blamed; accuser = src });
      if round < Exec.next_round t.exec then begin
        (* A blame about a round we already executed says nothing about
           the current primary — counting it toward a replacement quorum
           lets a single replica catching up after a crash push
           instances through spurious view changes. But it IS the
           signature of Example 3.3: a victim that colluding primaries
           keep in the dark stays stuck at an old round while the rest
           of the cluster advances, so such accusers still feed
           collusion detection (which never replaces a single primary on
           its own). *)
        if Bitset.add t.stale_accusers src then arm_collusion_timer t
      end
      else if
        new_view - 1 = t.views.(instance) && blamed = t.primaries.(instance)
      then begin
        Bitset.add t.blames.(instance) src |> ignore;
        t.blame_sigs.(instance).(src) <- Some (round, signature);
        if round < t.blame_round.(instance) then
          t.blame_round.(instance) <- round;
        if Bitset.count t.blames.(instance) >= t.cfg.f + 1 then
          enqueue_replacement t ~instance ~round:t.blame_round.(instance)
        else arm_collusion_timer t
      end
      else if Bitset.mem t.kmal blamed && src <> t.cfg.self then
        (* The accuser blames a primary we already deposed: it missed a
           replacement's blame quorum (partitioned or crashed at the
           time). Ship it our certified view so the coordinator state
           converges. *)
        send_view_sync t ~dst:src instance
  | _ -> ()

(* This replica's accusation of [blamed] for [instance]'s [round], as the
   VIEW-CHANGE that carries it: signed once, over the view being left. *)
let own_blame t ~instance ~round ~blamed =
  let view = t.views.(instance) in
  Msg.View_change
    {
      instance;
      new_view = view + 1;
      blamed;
      round;
      last_exec = Exec.next_round t.exec - 1;
      signature =
        sign_blame t.keychain ~signer:t.cfg.self ~instance ~view ~blamed ~round;
    }

let accuse ?(announce = ignore) t ~instance ~round ~blamed =
  if instance >= 0 && instance < t.cfg.z then begin
    let msg = own_blame t ~instance ~round ~blamed in
    announce msg;
    count_blame t ~src:t.cfg.self msg
  end

(* Blame each missing instance's primary, then ask the peers for each
   one's rounds from the stalled round on (§3.3's state exchange): a
   reply carries that instance's window alone, so what a stall costs the
   network grows with its gap, not with z. Instances without a hole at
   the stalled round are not requested: their rounds arrive through
   normal-case ordering. *)
let on_stall t ~round ~missing =
  List.iter
    (fun x ->
      let msg = own_blame t ~instance:x ~round ~blamed:t.primaries.(x) in
      count_blame t ~src:t.cfg.self msg;
      t.broadcast msg)
    missing;
  List.iter
    (fun x -> t.broadcast (Msg.Contract_request { round; instance = x }))
    missing

let false_blame t ~blamed =
  match Array.find_index (fun p -> p = blamed) t.primaries with
  | Some instance ->
      t.broadcast
        (own_blame t ~instance ~round:(Exec.next_round t.exec) ~blamed)
  | None -> ()

(* Does [cert] prove the view step [view - 1 -> view]? Under the
   deterministic rotation the deposed primary is a pure function of
   (instance, view - 1), so each vote must verify against that digest —
   the sender picks neither whom the quorum deposed nor at which view. *)
let verify_cert t ~instance ~view cert =
  let prev = view - 1 in
  let deposed = primary_for t.cfg ~instance ~view:prev in
  let seen = Bitset.create t.cfg.n in
  List.iter
    (fun (v : Msg.blame_vote) ->
      if
        v.Msg.bv_accuser >= 0
        && v.Msg.bv_accuser < t.cfg.n
        && (not (Bitset.mem seen v.Msg.bv_accuser))
        && Signature.verify
             (Keychain.replica_public t.keychain v.Msg.bv_accuser)
             (blame_digest ~instance ~view:prev ~blamed:deposed
                ~round:v.Msg.bv_round)
             v.Msg.bv_sig
      then ignore (Bitset.add seen v.Msg.bv_accuser))
    cert;
  Bitset.count seen >= t.cfg.f + 1

(* Adopt a strictly newer view for [instance]. Counts the skipped
   replacements so the replacement totals converge too (exact under
   optimistic/pessimistic recovery, where every view step is one
   replacement). *)
let on_view_sync t ~instance ~view ~primary ~kmal ~cert =
  if instance >= 0 && instance < t.cfg.z && view > t.views.(instance) then begin
    let adopt primary =
      t.pending_replace <-
        List.filter (fun (_, x) -> x <> instance) t.pending_replace;
      install_view t instance ~view ~primary
        ~replaced:(view - t.views.(instance));
      process_replacements t
    in
    match t.cfg.recovery with
    | Optimistic | Pessimistic ->
        (* Evidence-gated adoption: a certificate for the final step
           [view - 1 -> view] suffices — at least one honest replica
           stood in that blame quorum at view - 1, and honest replicas
           only reach a view through a chain of such quorums. Neither
           the sender's primary claim nor its kmal list is trusted:
           both are recomputed from the rotation over the skipped
           views. A sync without f+1 verifying votes moves nothing. *)
        if verify_cert t ~instance ~view cert then begin
          for v' = t.views.(instance) to view - 1 do
            Bitset.add t.kmal (primary_for t.cfg ~instance ~view:v') |> ignore
          done;
          t.certs.(instance) <- cert;
          adopt (primary_for t.cfg ~instance ~view)
        end
    | View_shift ->
        (* View-shift assigns primaries outside the rotation, so no
           per-step blame quorum exists to certify; the ablation arm
           keeps the legacy trust-the-sender convergence. *)
        List.iter (fun r -> Bitset.add t.kmal r |> ignore) kmal;
        adopt primary
  end

(* --- contracts ----------------------------------------------------------- *)

(* Validate [src]'s contract, count its entries, and adopt each that f + 1
   distinct responders now report, with them as its witnesses; whether
   the contract was valid. *)
let adopt_contract t ~src contract =
  match Contract.validate contract ~n:t.cfg.n with
  | Error _ -> false
  | Ok () ->
      let { Contract.adopted; disputed } =
        Contract.count t.contracts ~src ~next:(Exec.next_round t.exec) contract
      in
      if Engine.tracing t.engine && (adopted <> [] || disputed > 0) then
        trace t ~instance:(-1)
          (Rcc_trace.Event.Contract_adopted
             {
               round = contract.Contract.round;
               entries = List.length adopted;
               disputed;
             });
      List.iter
        (fun ((e : Msg.contract_entry), witnesses) ->
          (t.handles.(e.Msg.ce_instance)).h_adopt ~round:e.Msg.ce_round
            e.Msg.ce_batch ~witnesses)
        adopted;
      true

let on_contract_reply t ~src ~instance ~round ~max_seen entries =
  if
    instance >= 0 && instance < t.cfg.z && src >= 0 && src < t.cfg.n
    && adopt_contract t ~src { Contract.round; entries }
  then
    (t.handles.(instance)).h_answered ~src ~max_seen
      ~reported:
        (List.filter_map
           (fun (e : Msg.contract_entry) ->
             if
               e.Msg.ce_instance = instance
               && e.Msg.ce_round < round + Contract.window
             then Some (e.Msg.ce_round, e.Msg.ce_batch)
             else None)
           entries)

let on_contract_request t ~src ~round ~instance =
  if instance >= 0 && instance < t.cfg.z then begin
    (* Serve the requester's gap in [instance] alone: the requester — a
       replica whose execution stalled on [instance], or a fresh primary
       taking [instance] over — already holds every other instance's
       rounds, or asks for them separately. It cannot know how far ahead
       the rest of the cluster ran, so the reply carries the contiguous
       window of [instance]'s rounds from [round] up to the first round
       this replica lacks (at most [Contract.window] of them), plus the
       highest round this replica has seen in [instance]: an empty
       window still tells a fresh primary that nothing it lacks is in
       flight here. Contract entries carry their own round numbers, so
       the window packs into one message. *)
    let rec window r acc =
      match
        if r < round + Contract.window then accepted t ~round:r ~instance
        else None
      with
      | None -> List.rev acc
      | Some (batch, cert) ->
          window (r + 1)
            ({
               Msg.ce_instance = instance;
               ce_round = r;
               ce_batch = batch;
               ce_cert_replicas = cert;
             }
            :: acc)
    in
    let es = window round [] in
    let size = Msg.contract_entries_size es in
    if es <> [] then begin
      Metrics.record_contract_bytes t.metrics size;
      if Engine.tracing t.engine then
        trace t ~instance:(-1)
          (Rcc_trace.Event.Contract_sent
             { round; entries = List.length es; bytes = size })
    end;
    t.send ~size ~dst:src
      (Msg.Contract_reply
         {
           instance;
           round;
           max_seen = (t.handles.(instance)).h_max_seen ();
           entries = es;
         });
    (* A contract request is the voice of a replica pulling itself out of
       a stall (healed partition, restart): besides its missing rounds,
       ship it our certified coordinator views directly, so it converges
       on the primary set without waiting out the heartbeat gossip it may
       keep missing under backlog. *)
    for x = 0 to t.cfg.z - 1 do
      if t.views.(x) > 0 then send_view_sync t ~dst:src x
    done
  end

let on_msg t ~src (msg : Msg.t) =
  match msg with
  | View_change { instance; new_view; blamed; round; signature; _ } ->
      (* A peer's accusation counts only if authentic: an unsigned one
         feeds neither a replacement quorum nor collusion evidence. The
         view being left is part of the signed digest, so a byzantine
         replica cannot re-label a replica's old blame as evidence about
         the current primary. *)
      if
        instance >= 0 && instance < t.cfg.z && src >= 0 && src < t.cfg.n
        && Signature.verify
             (Keychain.replica_public t.keychain src)
             (blame_digest ~instance ~view:(new_view - 1) ~blamed ~round)
             signature
      then count_blame t ~src msg
  | Contract _ ->
      Option.iter (fun c -> ignore (adopt_contract t ~src c)) (Contract.of_msg msg)
  | Contract_request { round; instance } ->
      on_contract_request t ~src ~round ~instance
  | Contract_reply { instance; round; max_seen; entries } ->
      on_contract_reply t ~src ~instance ~round ~max_seen entries
  | View_sync { instance; view; primary; kmal; cert } ->
      on_view_sync t ~instance ~view ~primary ~kmal ~cert
  | _ -> ()

let on_round_executed t ~round =
  (* Blame evidence is scoped to the stall it complains about: once
     execution advances past the blamed round, the complaint has been
     cured (partition healed, contract adopted) and the accusations must
     not linger to combine with blames of a much later, unrelated stall —
     that is how replicas end up replacing primaries on evidence no
     quorum ever held at once. *)
  for x = 0 to t.cfg.z - 1 do
    if t.blame_round.(x) <> max_int && round > t.blame_round.(x) then
      clear_blames t x
  done;
  (* Stale accusers are scoped to the collusion window instead: while an
     evaluation is pending they must survive this hook — at a healthy
     replica execution advances every few hundred microseconds, and the
     Example 3.3 evidence (a victim stuck thousands of rounds behind) is
     stale BY DEFINITION at everyone else, so clearing it on every
     executed round would erase the attack's only signature long before
     the timer fires. Once no evaluation is pending the window is closed
     and whatever lingers is catch-up noise, not evidence. *)
  if not (collusion_pending t) then Bitset.clear t.stale_accusers;
  if t.cfg.recovery = Pessimistic then broadcast_contract t ~round
