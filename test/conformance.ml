(* The Instance_intf.S conformance suite.

   RCC treats each protocol as a black box satisfying R1-R4 (§3.3); the
   coordinator, liveness monitor and contract recovery rely only on the
   [Instance_intf.S] surface. This functor runs one contract suite over
   any instance so a new backend proves the behaviors the rest of the
   system assumes:

   - accepted rounds are visible through [accepted_batch] on every
     replica, matching what was reported upward (R1/R2: all replicas
     accept the same batch);
   - [adopt] is idempotent — a second adopt of a decided round cannot
     change it (R4: contract recovery never rewrites history);
   - [max_seen] reports no round before any activity, so a contract
     reply's watermark never claims rounds the instance has not seen;
   - batches submitted mid-leader-transfer are held and flushed, not
     dropped (the liveness half of R3 under unified recovery), including
     when the holding primary is re-installed as primary;
   - for primary-backup instances ([Info.takeover]): [resign_primary]
     holds proposals until [set_primary], and a fresh unified primary
     recovers the in-flight frontier from its peers (one CONTRACT-REQUEST
     from its lowest unproven round: [frontier + 1] where accepted rounds
     are quorum-certified ([Info.certified]), the round after the last
     commit certificate or stable checkpoint otherwise) before it
     proposes anything: until n - f answers settle it where accepted
     rounds are certified, or else until the grace period ends — and a
     watchdog blame does not cut that short. A backup sends that request
     only when it holds accepted rounds at or above the floor, which a
     certified instance never does. *)

module Batch = Rcc_messages.Batch

module Make
    (P : Rcc_replica.Instance_intf.S) (Info : sig
      val name : string

      val takeover : bool
      (** Primary-backup leadership ([resign_primary] / [set_primary]
          hold and take over); false for rotating-leader protocols. *)

      val certified : bool
      (** Accepted rounds carry a quorum certificate, so n - f contract
          answers can end a unified takeover. *)
    end) =
struct
  module H = Harness.Make (P)

  let check = Alcotest.check

  let test_fresh_instance () =
    let t = H.create ~n:4 () in
    let inst = H.inst t 2 in
    check Alcotest.bool "no accepted batch before any accept" true
      (Option.is_none (P.accepted_batch inst ~round:0));
    check Alcotest.int "no round seen before any activity" (-1)
      (P.max_seen inst)

  let test_accept_visibility () =
    let t = H.create ~n:4 () in
    H.submit t ~replica:0 (Harness.make_batch 7);
    H.run t 0.05;
    for r = 0 to 3 do
      check
        Alcotest.(option int)
        (Printf.sprintf "replica %d reported the accept upward" r)
        (Some 7)
        (H.accepted_batch_id t ~replica:r ~round:0);
      (match P.accepted_batch (H.inst t r) ~round:0 with
      | Some (b, _) ->
          check Alcotest.int
            (Printf.sprintf "replica %d serves the batch for contracts" r)
            7 b.Batch.id
      | None ->
          Alcotest.fail "accepted_batch must be available after accept");
      check Alcotest.int
        (Printf.sprintf "replica %d has seen no round past the accepted one" r)
        0
        (P.max_seen (H.inst t r))
    done

  let test_adopt_idempotence () =
    let t = H.create ~n:4 () in
    let inst = H.inst t 3 in
    let first = Harness.make_batch 41 and second = Harness.make_batch 42 in
    P.adopt inst ~round:0 first ~cert:[ 0; 1; 2 ];
    (match P.accepted_batch inst ~round:0 with
    | Some (b, _) -> check Alcotest.int "adopt decides the round" 41 b.Batch.id
    | None -> Alcotest.fail "adopt must make the round available");
    P.adopt inst ~round:0 second ~cert:[ 0; 1; 2 ];
    (* Two legal outcomes: quorum protocols keep the first decision (a
       conflicting adopt is simply ignored), while speculative protocols
       may surrender the round to the attested replacement — but then
       they MUST have signalled a rollback so the execute stage unwinds
       the first batch's effects. Silently rewriting is the fork bug. *)
    match P.accepted_batch inst ~round:0 with
    | Some (b, _) when b.Batch.id = 41 -> ()
    | Some (b, _) when b.Batch.id = 42 ->
        check
          Alcotest.(list int)
          "conflicting adopt must roll the round back before rewriting"
          [ 0 ] (H.node t 3).H.rollbacks
    | Some (b, _) ->
        Alcotest.failf "adopt produced an unrelated batch %d" b.Batch.id
    | None -> Alcotest.fail "round must stay decided"

  (* Whether [replica] accepted batch [id] in one of the first rounds. *)
  let has_accepted t ~replica id =
    List.exists
      (fun round -> H.accepted_batch_id t ~replica ~round = Some id)
      (List.init 9 Fun.id)

  let install_all t replica ~view =
    Array.iter (fun node -> P.set_primary node.H.inst replica ~view) t.H.nodes

  let test_held_batch_flush () =
    let t = H.create ~n:4 ~unified:true () in
    install_all t 1 ~view:1;
    (* Inside the takeover window: the new primary must hold the batch
       through its recovery grace period and flush it, not drop it. *)
    H.submit t ~replica:1 (Harness.make_batch 99);
    H.run t 0.3;
    check Alcotest.bool "batch submitted mid-transfer eventually accepted"
      true
      (has_accepted t ~replica:0 99)

  (* [Held_batches] is cleared only when a replica installs as backup: a
     primary re-installed as primary must flush what it held, whether it
     held because it resigned or because its previous takeover was still
     inside the recovery grace period. *)
  let test_held_survives_reinstall () =
    let t = H.create ~n:4 ~unified:true () in
    P.resign_primary (H.inst t 0);
    H.submit t ~replica:0 (Harness.make_batch 91);
    install_all t 0 ~view:1;
    H.run t 0.3;
    check Alcotest.bool "held through resign, flushed on re-install" true
      (has_accepted t ~replica:2 91);
    let t = H.create ~n:4 ~unified:true () in
    install_all t 1 ~view:1;
    H.submit t ~replica:1 (Harness.make_batch 92);
    install_all t 1 ~view:2;
    H.run t 0.3;
    check Alcotest.bool "held through grace, flushed on re-install" true
      (has_accepted t ~replica:2 92)

  let is_proposal = function
    | Rcc_messages.Msg.Pre_prepare _ | Rcc_messages.Msg.Order_request _ -> true
    | _ -> false

  let test_resign_holds () =
    let t = H.create ~n:4 ~unified:true () in
    P.resign_primary (H.inst t 0);
    H.submit t ~replica:0 (Harness.make_batch 93);
    H.run t 0.1;
    check Alcotest.bool "a resigned primary proposes nothing" true
      ((not (List.exists (fun (_, m) -> is_proposal m) (H.sent t ~replica:0)))
      && not (has_accepted t ~replica:2 93));
    install_all t 0 ~view:1;
    H.run t 0.4;
    check Alcotest.bool "set_primary flushes the held batch" true
      (has_accepted t ~replica:2 93)

  (* Contract requests [replica] sent at or after [since], by round. *)
  let contract_requests t ~replica ~since =
    List.filter_map
      (function
        | at, Rcc_messages.Msg.Contract_request { round; _ } when at >= since ->
            Some round
        | _ -> None)
      (H.sent t ~replica)

  (* The unified takeover (§3.4): announce the view, ask the peers once
     from the lowest unproven round, and flush the batches held meanwhile
     when it ends. [answers] are delivered 1 ms after the install as
     (peer, rounds past that peer's own [max_seen] it reports). Returns
     whether the new primary proposed inside the grace period
     ([timeout / 8]). *)
  let takeover_proposes_early ~answers =
    let timeout = Rcc_sim.Engine.ms 200 in
    let t = H.create ~timeout ~n:4 ~unified:true () in
    H.submit t ~replica:0 (Harness.make_batch 7);
    H.run t 0.05;
    check Alcotest.(option int) "round 0 accepted before the takeover"
      (Some 7) (H.accepted_batch_id t ~replica:1 ~round:0);
    let t0 = Rcc_sim.Engine.now t.H.engine in
    let grace = timeout / 8 in
    install_all t 1 ~view:1;
    H.submit t ~replica:1 (Harness.make_batch 94);
    Rcc_sim.Engine.schedule_after t.H.engine (Rcc_sim.Engine.ms 1) (fun () ->
        List.iter
          (fun (src, ahead) ->
            P.on_contract_reply (H.inst t 1) ~src
              ~max_seen:(P.max_seen (H.inst t src) + ahead))
          answers);
    Rcc_sim.Engine.run t.H.engine ~until:(t0 + grace - 1);
    let since_takeover =
      List.filter (fun (at, _) -> at >= t0) (H.sent t ~replica:1)
    in
    (* Round 0 is accepted everywhere: certified, it is proven; under
       Zyzzyva it is speculative, with no commit certificate or stable
       checkpoint below it. *)
    check
      Alcotest.(list int)
      "one contract request from the unproven floor"
      [ (if Info.certified then 1 else 0) ]
      (contract_requests t ~replica:1 ~since:t0);
    let early = List.exists (fun (_, m) -> is_proposal m) since_takeover in
    H.run t 0.3;
    check Alcotest.bool "held batch flushed when the takeover ends" true
      (has_accepted t ~replica:2 94);
    early

  let test_unified_takeover () =
    check Alcotest.bool
      (if Info.certified then
         "n - f clean answers end the takeover before timeout / 8"
       else "a speculative instance always waits the grace period")
      Info.certified
      (takeover_proposes_early ~answers:[ (2, 0); (3, 0) ]);
    check Alcotest.bool "fewer than n - f answers wait the grace period" false
      (takeover_proposes_early ~answers:[ (2, 0); (2, 0) ]);
    check Alcotest.bool "an answer past max_seen waits the grace period" false
      (takeover_proposes_early ~answers:[ (2, 0); (3, 1) ])

  (* A backup re-checks what it cannot prove when it adopts a view: with
     rounds accepted past a stable checkpoint, a Zyzzyva backup holds
     speculative rounds a view change may undo, so it asks its peers once
     from the round after the checkpoint; a certified backup's accepted
     prefix is proven, so it asks nothing. *)
  let test_backup_install_rechecks () =
    let t = H.create ~n:4 ~unified:true ~checkpoint_interval:4 () in
    for id = 1 to 6 do
      H.submit t ~replica:0 (Harness.make_batch id)
    done;
    H.run t 0.1;
    let stable =
      Rcc_storage.Checkpoint_store.stable_seq (P.checkpoint_log (H.inst t 2))
    in
    check Alcotest.bool "a checkpoint below the accepted rounds is stable"
      true
      (stable >= 0 && H.accepted_batch_id t ~replica:2 ~round:(stable + 1) <> None);
    let t0 = Rcc_sim.Engine.now t.H.engine in
    install_all t 1 ~view:1;
    check
      Alcotest.(list int)
      (if Info.certified then "a certified backup sends no request"
       else "one request from stable + 1")
      (if Info.certified then [] else [ stable + 1 ])
      (contract_requests t ~replica:2 ~since:t0)

  (* A watchdog blame inside a takeover does not end it: under RCC the
     coordinator decides view changes, so the new primary still waits for
     its peers (here: the grace period, as no answers arrive), re-proposes
     its incomplete rounds and flushes its held batches. PBFT's blame
     used to clear the hold flag instead, which skipped all three. Replica
     1 blames itself at 0.3 s for round 0, which only replicas 0 and 1 saw
     and which its takeover re-proposes. Zyzzyva backups accept on the
     primary's order alone, so only the certified protocols stall here. *)
  let test_blame_keeps_takeover () =
    let timeout = Rcc_sim.Engine.ms 200 in
    let t = H.create ~timeout ~n:4 ~unified:true () in
    H.kill t 2;
    H.kill t 3;
    H.submit t ~replica:0 (Harness.make_batch 7);
    H.run t 0.1;
    H.kill t 0;
    H.revive t 2;
    H.revive t 3;
    H.run t 0.29;
    let t0 = Rcc_sim.Engine.now t.H.engine in
    let blames () = List.length (H.node t 1).H.failures in
    let before = blames () in
    install_all t 1 ~view:1;
    H.submit t ~replica:1 (Harness.make_batch 95);
    Rcc_sim.Engine.run t.H.engine ~until:(t0 + (timeout / 8) - 1);
    check Alcotest.bool "the new primary blamed inside its takeover" true
      (blames () > before);
    check Alcotest.bool "no proposal inside the grace period" false
      (List.exists
         (fun (at, m) -> at >= t0 && is_proposal m)
         (H.sent t ~replica:1));
    H.run t 0.6;
    check Alcotest.bool "round 0 re-proposed and accepted" true
      (has_accepted t ~replica:2 7);
    check Alcotest.bool "held batch flushed after the grace period" true
      (has_accepted t ~replica:2 95)

  (* Every backend must leave the same structured footprint: a round is
     proposed, then accepted, then executed, at non-decreasing simulated
     times, on every replica. The events come from shared layers
     (Slot_log, Instance_env.instrument, the harness's execute stamp), so
     this pins the zero-per-protocol-code tracing contract. *)
  let test_trace_order () =
    let module E = Rcc_trace.Event in
    let t = H.create ~n:4 ~trace:true () in
    H.submit t ~replica:0 (Harness.make_batch 7);
    H.run t 0.05;
    let events = H.trace_events t in
    check Alcotest.bool "trace is non-empty" true (events <> []);
    let times = List.map (fun (e : E.t) -> e.E.at) events in
    check Alcotest.bool "ring is in sim-time order" true
      (List.sort compare times = times);
    for r = 0 to 3 do
      if H.accepted_batch_id t ~replica:r ~round:0 = Some 7 then begin
        let stage (e : E.t) =
          if e.E.replica <> r then None
          else
            match e.E.payload with
            | E.Slot_propose { round = 0 } -> Some `Propose
            | E.Slot_accept { round = 0; _ } -> Some `Accept
            | E.Slot_exec { round = 0; _ } -> Some `Exec
            | _ -> None
        in
        let stages = List.filter_map stage events in
        let first s =
          let rec scan i = function
            | [] -> None
            | x :: _ when x = s -> Some i
            | _ :: rest -> scan (i + 1) rest
          in
          scan 0 stages
        in
        match (first `Propose, first `Accept, first `Exec) with
        | Some p, Some a, Some e ->
            check Alcotest.bool
              (Printf.sprintf "replica %d: propose -> accept -> execute" r)
              true
              (p < a && a <= e)
        | _ ->
            Alcotest.fail
              (Printf.sprintf
                 "replica %d accepted round 0 but its trace lacks a \
                  propose/accept/execute event"
                 r)
      end
    done

  let suite =
    ( "conformance:" ^ Info.name,
      [
        Alcotest.test_case "fresh instance" `Quick test_fresh_instance;
        Alcotest.test_case "accepted_batch after accept" `Quick
          test_accept_visibility;
        Alcotest.test_case "adopt idempotence" `Quick test_adopt_idempotence;
        Alcotest.test_case "held-batch flush after set_primary" `Quick
          test_held_batch_flush;
        Alcotest.test_case "held batch survives re-install as primary"
          `Quick test_held_survives_reinstall;
        Alcotest.test_case "trace order" `Quick test_trace_order;
      ]
      @ (if Info.takeover then
           [
             Alcotest.test_case
               "resign_primary holds proposals until set_primary" `Quick
               test_resign_holds;
             Alcotest.test_case "unified takeover" `Quick test_unified_takeover;
             Alcotest.test_case "backup install re-checks" `Quick
               test_backup_install_rechecks;
           ]
         else [])
      @
      if Info.certified then
        [
          Alcotest.test_case "blame inside takeover" `Quick
            test_blame_keeps_takeover;
        ]
      else [] )
end

module Pbft =
  Make
    (Rcc_pbft.Pbft_instance)
    (struct
      let name = "pbft"
      let takeover = true
      let certified = true
    end)

module Zyzzyva =
  Make
    (Rcc_zyzzyva.Zyzzyva_instance)
    (struct
      let name = "zyzzyva"
      let takeover = true
      let certified = false
    end)

module Cft =
  Make
    (Rcc_cft.Cft_instance)
    (struct
      let name = "cft"
      let takeover = true
      let certified = true
    end)

module Hotstuff =
  Make
    (Rcc_hotstuff.Hotstuff_replica)
    (struct
      let name = "hotstuff"
      let takeover = false
      let certified = false
    end)

(* Regression for the layer the functor suites build on: gc_upto used to
   collect every slot <= upto even past the accept frontier, silently
   deleting not-yet-accepted rounds a checkpoint cannot cover. *)
let test_slot_log_gc_clamped_to_frontier () =
  let module SL = Rcc_proto_core.Slot_log in
  let check = Alcotest.check in
  let engine = Rcc_sim.Engine.create () in
  let log = SL.create ~engine ~init:(fun _ -> ()) () in
  for round = 0 to 9 do
    ignore (SL.get log round)
  done;
  (* Accept rounds 0..4 only: the frontier stops at 4. *)
  ignore (SL.drain log ~accept:(fun slot -> slot.SL.round <= 4));
  check Alcotest.int "frontier at the last accepted round" 4 (SL.frontier log);
  SL.gc_upto log 9;
  for round = 0 to 4 do
    check Alcotest.bool
      (Printf.sprintf "accepted round %d collected" round)
      true
      (Option.is_none (SL.find_opt log round))
  done;
  for round = 5 to 9 do
    check Alcotest.bool
      (Printf.sprintf "unaccepted round %d survives gc" round)
      true
      (Option.is_some (SL.find_opt log round))
  done;
  check
    Alcotest.(option int)
    "oldest incomplete round still reported" (Some 5)
    (Option.map fst (SL.oldest_incomplete log));
  (* A gc below the frontier stays a plain prefix collection. *)
  ignore (SL.drain log ~accept:(fun _ -> true));
  SL.gc_upto log 7;
  check Alcotest.bool "round 8 survives partial gc" true
    (Option.is_some (SL.find_opt log 8))

let slot_log_suite =
  ( "conformance:slot_log",
    [
      Alcotest.test_case "gc clamped to frontier" `Quick
        test_slot_log_gc_clamped_to_frontier;
    ] )

(* The primary-side retransmission dedup PBFT and Zyzzyva share, judged
   against a real slot log: a resend is re-announced at its original slot
   while that slot still holds it, skipped once the slot is stable and
   collected, and ordered afresh once the slot was unwound. *)
let test_ordered_batches_outcomes () =
  let module SL = Rcc_proto_core.Slot_log in
  let module OB = Rcc_proto_core.Ordered_batches in
  let check = Alcotest.check in
  let decision =
    Alcotest.testable
      (fun fmt -> function
        | OB.Fresh -> Format.pp_print_string fmt "Fresh"
        | OB.Reannounce seq -> Format.fprintf fmt "Reannounce %d" seq
        | OB.Collected -> Format.pp_print_string fmt "Collected")
      ( = )
  in
  let engine = Rcc_sim.Engine.create () in
  let log = SL.create ~engine ~init:(fun _ -> ()) () in
  let ordered = OB.create () in
  let batch = { (Batch.null ~round:3) with Batch.client = 7 } in
  let resend_other = { (Batch.null ~round:4) with Batch.client = 7 } in
  check decision "never ordered" OB.Fresh (OB.check ordered log batch);
  for round = 0 to 3 do
    (SL.get log round).SL.batch <- Some (Batch.null ~round)
  done;
  (SL.get log 3).SL.batch <- Some batch;
  OB.record ordered batch ~seq:3;
  check decision "live at its slot" (OB.Reannounce 3)
    (OB.check ordered log batch);
  check decision "a different batch of the client" OB.Fresh
    (OB.check ordered log resend_other);
  SL.unwind log ~round:3;
  check decision "slot unwound" OB.Fresh (OB.check ordered log batch);
  (SL.get log 3).SL.batch <- Some batch;
  ignore (SL.drain log ~accept:(fun _ -> true));
  SL.gc_upto log 3;
  check decision "stable and collected" OB.Collected
    (OB.check ordered log batch);
  OB.reset ordered;
  check decision "forgotten on view install" OB.Fresh
    (OB.check ordered log batch)

(* Suite names stay within 20 characters: Alcotest narrows the column every
   test name is printed in to fit the longest suite name. *)
let ordered_batches_suite =
  ( "conformance:ordered",
    [
      Alcotest.test_case "three dedup outcomes" `Quick
        test_ordered_batches_outcomes;
    ] )

let suites =
  [
    Pbft.suite;
    Zyzzyva.suite;
    Cft.suite;
    Hotstuff.suite;
    slot_log_suite;
    ordered_batches_suite;
  ]
