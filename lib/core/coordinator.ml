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
  h_adopt : round:round -> Rcc_messages.Batch.t -> cert:int list -> unit;
  h_answered : src:replica_id -> max_seen:round -> unit;
  h_max_seen : unit -> round;
  h_accepted : round:round -> (Rcc_messages.Batch.t * int list) option;
  h_incomplete : unit -> round list;
  h_primary : unit -> replica_id;
}

type config = {
  n : int;
  f : int;
  z : int;
  self : replica_id;
  collusion_wait : Rcc_sim.Engine.time;
  recovery : recovery_mode;
  min_cert : int;
  history_capacity : int;
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
  mutable collusion_timer : Engine.timer option;
  mutable replacements : int;
  mutable shifts : int;
  (* Ring of recently executed rounds, for building contracts about rounds
     the execute thread has already passed. *)
  history : (round * Acceptance.t array) option array;
}

let create cfg ~engine ~keychain ~handles ~exec ~metrics ~broadcast ~send =
  assert (Array.length handles = cfg.z);
  {
    cfg;
    engine;
    keychain;
    handles;
    exec;
    metrics;
    broadcast;
    send;
    primaries = Array.init cfg.z (fun x -> (handles.(x)).h_primary ());
    views = Array.make cfg.z 0;
    kmal = Bitset.create cfg.n;
    blames = Array.init cfg.z (fun _ -> Bitset.create cfg.n);
    blame_round = Array.make cfg.z max_int;
    blame_sigs = Array.init cfg.z (fun _ -> Array.make cfg.n None);
    certs = Array.make cfg.z [];
    stale_accusers = Bitset.create cfg.n;
    pending_replace = [];
    collusion_timer = None;
    replacements = 0;
    shifts = 0;
    history = Array.make (max 16 cfg.history_capacity) None;
  }

let trace t ~instance payload =
  Engine.trace t.engine ~replica:t.cfg.self ~instance payload

let primaries t = Array.to_list t.primaries
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

(* --- round history ----------------------------------------------------- *)

let history_store t round accs =
  t.history.(round mod Array.length t.history) <- Some (round, accs)

let history_find t round instance =
  match t.history.(round mod Array.length t.history) with
  | Some (r, accs) when r = round ->
      Array.find_opt (fun (a : Acceptance.t) -> a.instance = instance) accs
  | Some _ | None -> None

(* Speculative rollback unwound rounds [>= frontier]: the retained copies
   describe orderings the view change just invalidated, so contract
   building and recovery must stop serving them. The rounds re-enter the
   ring via [on_round_executed] when they re-execute. *)
let on_rollback t ~frontier =
  Array.iteri
    (fun i slot ->
      match slot with
      | Some (r, _) when r >= frontier -> t.history.(i) <- None
      | Some _ | None -> ())
    t.history

(* This replica's knowledge of instance [x]'s round-[r] batch: a pending
   acceptance at the execute thread, an already-executed round in the
   history ring, or the instance's own log. *)
let accepted_anywhere t ~round ~instance =
  match Exec.accepted t.exec ~round ~instance with
  | Some a -> Some (a.Acceptance.batch, a.Acceptance.cert)
  | None -> (
      match history_find t round instance with
      | Some a -> Some (a.Acceptance.batch, a.Acceptance.cert)
      | None -> (t.handles.(instance)).h_accepted ~round)

(* --- unified replacement (§3.4.2) -------------------------------------- *)

let clear_blames t x =
  Bitset.clear t.blames.(x);
  Array.fill t.blame_sigs.(x) 0 t.cfg.n None;
  t.blame_round.(x) <- max_int

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
      t.views.(x) <- t.views.(x) + 1;
      let fresh = primary_for t.cfg ~instance:x ~view:t.views.(x) in
      t.primaries.(x) <- fresh;
      t.replacements <- t.replacements + 1;
      Metrics.record_view_change ~instance:x t.metrics;
      if Engine.tracing t.engine then begin
        trace t ~instance:x (Rcc_trace.Event.Kmal { culprit = deposed });
        trace t ~instance:x
          (Rcc_trace.Event.Primary_change
             { primary = fresh; view = t.views.(x) })
      end;
      clear_blames t x;
      (t.handles.(x)).h_set_primary fresh ~view:t.views.(x);
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
      ~accepted:(fun x -> accepted_anywhere t ~round ~instance:x)
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
    t.primaries.(x) <- fresh;
    t.views.(x) <- t.views.(x) + 1;
    if Engine.tracing t.engine then
      trace t ~instance:x
        (Rcc_trace.Event.Primary_change { primary = fresh; view = t.views.(x) });
    clear_blames t x;
    (t.handles.(x)).h_set_primary fresh ~view:t.views.(x)
  done

let on_collusion_detected t =
  Metrics.record_collusion_detected t.metrics;
  if Engine.tracing t.engine then trace t ~instance:(-1) Rcc_trace.Event.Collusion;
  match t.cfg.recovery with
  | Optimistic | Pessimistic ->
      List.iter (fun round -> broadcast_contract t ~round) (stalled_rounds t)
  | View_shift -> view_shift t

let collusion_pending t =
  match t.collusion_timer with
  | Some timer -> Engine.timer_pending timer
  | None -> false

let rec arm_collusion_timer t =
  match t.collusion_timer with
  | Some timer when Engine.timer_pending timer -> ()
  | Some _ | None ->
      t.collusion_timer <-
        Some
          (Engine.timer_after t.engine t.cfg.collusion_wait (fun () ->
               evaluate_collusion t))

and evaluate_collusion t =
  t.collusion_timer <- None;
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

let send_view_sync t ~dst ~instance =
  let msg =
    Msg.View_sync
      {
        instance;
        view = t.views.(instance);
        primary = t.primaries.(instance);
        kmal = Bitset.to_list t.kmal;
        cert = t.certs.(instance);
      }
  in
  t.send ~size:(Msg.size msg) ~dst msg

(* Periodic anti-entropy: replicas that were crashed or partitioned
   through a replacement's blame quorum hold stale views until something
   reminds them. Blame-triggered syncs only fire while traffic is
   unhealthy, so the heartbeat also gossips any non-initial views. *)
let gossip_views t =
  for x = 0 to t.cfg.z - 1 do
    if t.views.(x) > 0 then begin
      let msg =
        Msg.View_sync
          {
            instance = x;
            view = t.views.(x);
            primary = t.primaries.(x);
            kmal = Bitset.to_list t.kmal;
            cert = t.certs.(x);
          }
      in
      t.broadcast ~size:(Msg.size msg) msg
    end
  done

let register_blame t ~src ~instance ~view ~blamed ~round ~signature =
  if
    instance >= 0 && instance < t.cfg.z && src >= 0 && src < t.cfg.n
    (* Authenticity first: an unauthenticated accusation counts toward
       nothing — not a replacement quorum, not collusion evidence. The
       claimed view is part of the signed digest, so a byzantine replica
       cannot re-label a replica's old blame as evidence about the
       current primary. *)
    && Signature.verify
         (Keychain.replica_public t.keychain src)
         (blame_digest ~instance ~view ~blamed ~round)
         signature
  then begin
    if Engine.tracing t.engine then
      trace t ~instance (Rcc_trace.Event.Blame { round; blamed; accuser = src });
    if round < Exec.next_round t.exec then begin
      (* A blame about a round we already executed says nothing about the
         current primary — counting it toward a replacement quorum lets a
         single replica catching up after a crash push instances through
         spurious view changes. But it IS the signature of Example 3.3:
         a victim that colluding primaries keep in the dark stays stuck
         at an old round while the rest of the cluster advances, so such
         accusers still feed collusion detection (which never replaces a
         single primary on its own). *)
      if Bitset.add t.stale_accusers src then arm_collusion_timer t
    end
    else if view = t.views.(instance) && blamed = t.primaries.(instance)
    then begin
      Bitset.add t.blames.(instance) src |> ignore;
      t.blame_sigs.(instance).(src) <- Some (round, signature);
      if round < t.blame_round.(instance) then t.blame_round.(instance) <- round;
      if Bitset.count t.blames.(instance) >= t.cfg.f + 1 then
        enqueue_replacement t ~instance ~round:t.blame_round.(instance)
      else arm_collusion_timer t
    end
    else if Bitset.mem t.kmal blamed && src <> t.cfg.self then
      (* The accuser blames a primary we already deposed: it missed a
         replacement's blame quorum (partitioned or crashed at the time).
         Ship it our certified view so the coordinator state converges. *)
      send_view_sync t ~dst:src ~instance
  end

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
      let skipped = view - t.views.(instance) in
      t.replacements <- t.replacements + skipped;
      for _ = 1 to skipped do
        Metrics.record_view_change ~instance t.metrics
      done;
      if Engine.tracing t.engine then
        trace t ~instance (Rcc_trace.Event.Primary_change { primary; view });
      t.primaries.(instance) <- primary;
      t.views.(instance) <- view;
      t.pending_replace <-
        List.filter (fun (_, x) -> x <> instance) t.pending_replace;
      clear_blames t instance;
      (t.handles.(instance)).h_set_primary primary ~view;
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

let on_local_failure t ~instance ~round ~blamed =
  if instance >= 0 && instance < t.cfg.z then begin
    let view = t.views.(instance) in
    let signature =
      Signature.sign
        (Keychain.replica_secret t.keychain t.cfg.self)
        (blame_digest ~instance ~view ~blamed ~round)
    in
    register_blame t ~src:t.cfg.self ~instance ~view ~blamed ~round ~signature
  end

let on_view_change t ~src ~instance ~view ~blamed ~round ~signature =
  register_blame t ~src ~instance ~view ~blamed ~round ~signature

(* --- contracts ----------------------------------------------------------- *)

(* Validate a contract and adopt its entries; whether it was valid. *)
let adopt_contract t contract =
  match Contract.validate contract ~n:t.cfg.n ~min_cert:t.cfg.min_cert with
  | Error _ -> false
  | Ok () ->
      (if Engine.tracing t.engine then
         match contract.Contract.entries with
         | [] -> ()
         | e :: _ ->
             trace t ~instance:(-1)
               (Rcc_trace.Event.Contract_adopted
                  {
                    round = e.Msg.ce_round;
                    entries = List.length contract.Contract.entries;
                  }));
      List.iter
        (fun (e : Msg.contract_entry) ->
          if e.Msg.ce_instance < t.cfg.z then
            (t.handles.(e.Msg.ce_instance)).h_adopt ~round:e.Msg.ce_round
              e.Msg.ce_batch ~cert:e.Msg.ce_cert_replicas)
        contract.Contract.entries;
      true

let on_contract t msg =
  match Contract.of_msg msg with
  | None -> ()
  | Some contract -> ignore (adopt_contract t contract)

let on_contract_reply t ~src ~instance ~round ~max_seen entries =
  if
    instance >= 0 && instance < t.cfg.z && src >= 0 && src < t.cfg.n
    && adopt_contract t { Contract.round; entries }
  then (t.handles.(instance)).h_answered ~src ~max_seen

(* Bound on how many consecutive rounds one contract reply may carry. *)
let contract_window = 1_024

let on_contract_request t ~src ~round ~instance =
  if instance >= 0 && instance < t.cfg.z then begin
    (* Serve the requester's gap in [instance] alone: the requester — a
       replica whose execution stalled on [instance], or a fresh primary
       taking [instance] over — already holds every other instance's
       rounds, or asks for them separately. It cannot know how far ahead
       the rest of the cluster ran, so the reply carries the contiguous
       window of [instance]'s rounds from [round] up to the first round
       this replica lacks (at most [contract_window] of them), plus the
       highest round this replica has seen in [instance]: an empty
       window still tells a fresh primary that nothing it lacks is in
       flight here. Contract entries carry their own round numbers, so
       the window packs into one message. *)
    let rec window r acc =
      match
        if r < round + contract_window then accepted_anywhere t ~round:r ~instance
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
      if t.views.(x) > 0 then send_view_sync t ~dst:src ~instance:x
    done
  end

let on_round_executed t ~round accs =
  history_store t round accs;
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
