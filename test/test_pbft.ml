(* PBFT instance tests over the direct-delivery harness: normal case,
   agreement (R3), dark-replica detection (R2), view changes (R4),
   checkpoint garbage collection, pipelining. *)

module H = Harness.Make (Rcc_pbft.Pbft_instance)
module P = Rcc_pbft.Pbft_instance
module Byz = Rcc_replica.Byz

let check = Alcotest.check

let test_normal_case () =
  let t = H.create ~n:4 () in
  H.submit t ~replica:0 (Harness.make_batch 1);
  H.run t 0.01;
  for r = 0 to 3 do
    check Alcotest.(option int)
      (Printf.sprintf "replica %d accepted round 0" r)
      (Some 1)
      (H.accepted_batch_id t ~replica:r ~round:0)
  done

let test_pipelined_rounds () =
  let t = H.create ~n:4 () in
  (* The primary proposes ten batches back-to-back without waiting. *)
  for id = 0 to 9 do
    H.submit t ~replica:0 (Harness.make_batch id)
  done;
  H.run t 0.05;
  for round = 0 to 9 do
    check Alcotest.(option int)
      (Printf.sprintf "round %d" round)
      (Some round)
      (H.accepted_batch_id t ~replica:2 ~round)
  done

let test_agreement_r3 () =
  let t = H.create ~n:7 () in
  for id = 0 to 4 do
    H.submit t ~replica:0 (Harness.make_batch id)
  done;
  H.run t 0.05;
  (* All replicas agree on the batch of every round. *)
  for round = 0 to 4 do
    let reference = H.accepted_batch_id t ~replica:0 ~round in
    check Alcotest.bool "reference exists" true (Option.is_some reference);
    for r = 1 to 6 do
      check Alcotest.(option int) "same decision" reference
        (H.accepted_batch_id t ~replica:r ~round)
    done
  done

let test_backup_ignores_non_primary_proposal () =
  let t = H.create ~n:4 () in
  (* Replica 2 is not the primary; its proposal must be ignored. *)
  H.submit t ~replica:2 (Harness.make_batch 5);
  H.run t 0.01;
  check Alcotest.(option int) "no acceptance" None
    (H.accepted_batch_id t ~replica:1 ~round:0)

let test_dark_replica_detects_failure () =
  (* The primary excludes replica 3 from PRE-PREPAREs: replica 3 sees the
     other backups' PREPAREs but cannot accept, and must blame the primary
     within the timeout (requirement R2). *)
  let byz self =
    if self = 0 then Byz.dark_primary ~victims:[ 3 ] () else Byz.honest
  in
  let t = H.create ~n:4 ~byz ~timeout:(Rcc_sim.Engine.ms 50) ~unified:true () in
  H.submit t ~replica:0 (Harness.make_batch 1);
  H.run t 0.5;
  check Alcotest.(option int) "victim did not accept" None
    (H.accepted_batch_id t ~replica:3 ~round:0);
  check Alcotest.(option int) "others accepted" (Some 1)
    (H.accepted_batch_id t ~replica:1 ~round:0);
  check Alcotest.bool "victim blamed the primary" true
    (List.exists (fun (_, blamed) -> blamed = 0) (H.node t 3).H.failures)

let test_standalone_view_change () =
  (* A malicious primary keeps backups 2 and 3 in the dark. They see the
     other backup's PREPAREs, stall, time out, and the cluster elects
     replica 1 (view 1 mod n), which re-proposes from its log (R4). *)
  let byz self =
    if self = 0 then Byz.dark_primary ~victims:[ 2; 3 ] () else Byz.honest
  in
  let t = H.create ~n:4 ~byz ~timeout:(Rcc_sim.Engine.ms 50) () in
  H.submit t ~replica:0 (Harness.make_batch 1);
  H.run t 1.0;
  check Alcotest.int "new primary is replica 1" 1 (P.primary (H.inst t 1));
  check Alcotest.int "backups agree on primary" 1 (P.primary (H.inst t 2));
  check Alcotest.bool "new view installed" true
    (List.exists
       (function _, Rcc_messages.Msg.Prepare { view; _ } -> view >= 1 | _ -> false)
       (H.sent t ~replica:2));
  (* The re-proposal delivered the round to the dark replicas. *)
  check Alcotest.(option int) "victim completed round 0 after re-proposal"
    (Some 1)
    (H.accepted_batch_id t ~replica:3 ~round:0)

let test_view_change_reproposes () =
  let byz self =
    if self = 0 then Byz.dark_primary ~victims:[ 2; 3 ] () else Byz.honest
  in
  let t = H.create ~n:4 ~byz ~timeout:(Rcc_sim.Engine.ms 50) () in
  for id = 0 to 2 do
    H.submit t ~replica:0 (Harness.make_batch id)
  done;
  (* Wait out the view change, then the new primary leads fresh rounds. *)
  H.run t 1.0;
  H.submit t ~replica:1 (Harness.make_batch 77);
  H.run t 1.5;
  let accepted_new =
    List.exists
      (fun round -> H.accepted_batch_id t ~replica:2 ~round = Some 77)
      [ 0; 1; 2; 3; 4; 5 ]
  in
  check Alcotest.bool "new primary's batch accepted" true accepted_new

let test_unified_set_primary () =
  let t = H.create ~n:4 ~unified:true ~timeout:(Rcc_sim.Engine.ms 50) () in
  H.submit t ~replica:0 (Harness.make_batch 1);
  H.run t 0.01;
  (* The coordinator (simulated here) installs replica 2 as primary. *)
  for r = 0 to 3 do
    P.set_primary (H.inst t r) 2 ~view:1
  done;
  H.run t 0.02;
  check Alcotest.int "primary installed" 2 (P.primary (H.inst t 1));
  H.submit t ~replica:2 (Harness.make_batch 9);
  H.run t 0.05;
  let found =
    List.exists
      (fun round -> H.accepted_batch_id t ~replica:0 ~round = Some 9)
      [ 0; 1; 2; 3 ]
  in
  check Alcotest.bool "new primary proposes" true found

let test_adopt_via_contract () =
  let byz self =
    if self = 0 then Byz.dark_primary ~victims:[ 3 ] () else Byz.honest
  in
  let t = H.create ~n:4 ~byz ~unified:true () in
  H.submit t ~replica:0 (Harness.make_batch 4);
  H.run t 0.01;
  check Alcotest.(option int) "victim in the dark" None
    (H.accepted_batch_id t ~replica:3 ~round:0);
  (* Recovery: adopt the batch with another replica's accept proof. *)
  (match H.accepted t ~replica:1 ~round:0 with
  | Some a -> P.adopt (H.inst t 3) ~round:0 a.Rcc_replica.Acceptance.batch ~cert:a.cert
  | None -> Alcotest.fail "replica 1 should have the batch");
  check Alcotest.(option int) "victim recovered" (Some 4)
    (H.accepted_batch_id t ~replica:3 ~round:0)

(* The single-holder case under RCC (n = 7, f = 2): replica 6 alone
   collects 2f + 1 COMMITs for round 0, the others only prepare it, and
   replica 1, the next primary, never sees the PRE-PREPARE. Replica 6's
   answer is one report, short of the f + 1 that adoption needs, so the
   takeover must re-propose its batch at round 0: a null there would
   fork replica 6's ledger. [answers] reach replica 1 1 ms into its
   takeover as (peer, batches that peer reports). Returns whether
   replica 1 proposed inside the grace period. *)
let single_holder_takeover ~answers =
  let timeout = Rcc_sim.Engine.ms 200 in
  let lossy = ref true in
  let drop ~src:_ ~dst msg =
    !lossy
    &&
    match msg with
    | Rcc_messages.Msg.Commit _ -> dst <> 6
    | Rcc_messages.Msg.Pre_prepare _ -> dst = 1
    | _ -> false
  in
  let t = H.create ~timeout ~n:7 ~unified:true ~drop () in
  H.submit t ~replica:0 (Harness.make_batch 7);
  H.run t 0.05;
  check Alcotest.(list (option int)) "replica 6 alone accepted round 0"
    [ None; None; None; None; None; Some 7 ]
    (List.init 6 (fun r -> H.accepted_batch_id t ~replica:(r + 1) ~round:0));
  H.kill t 0;
  lossy := false;
  let t0 = Rcc_sim.Engine.now t.H.engine in
  Array.iter (fun node -> P.set_primary node.H.inst 1 ~view:1) t.H.nodes;
  Rcc_sim.Engine.schedule_after t.H.engine (Rcc_sim.Engine.ms 1) (fun () ->
      List.iter
        (fun (src, reported) ->
          P.on_contract_reply (H.inst t 1) ~src
            ~max_seen:(P.max_seen (H.inst t src))
            ~reported)
        answers);
  Rcc_sim.Engine.run t.H.engine ~until:(t0 + (timeout / 8) - 1);
  let early =
    List.exists
      (fun (at, m) ->
        at >= t0
        && match m with Rcc_messages.Msg.Pre_prepare _ -> true | _ -> false)
      (H.sent t ~replica:1)
  in
  H.run t 0.5;
  (t, early)

let test_single_holder_takeover () =
  let b7 = Harness.make_batch 7 in
  let t, early =
    single_holder_takeover
      ~answers:[ (6, [ (0, b7) ]); (2, []); (3, []); (4, []) ]
  in
  check Alcotest.bool "n - f answers with one report end the takeover" true
    early;
  check Alcotest.(list (option int)) "every live replica holds batch 7 at round 0"
    (List.init 6 (fun _ -> Some 7))
    (List.init 6 (fun r -> H.accepted_batch_id t ~replica:(r + 1) ~round:0));
  let _, early =
    single_holder_takeover
      ~answers:[ (6, [ (0, b7) ]); (5, [ (0, Harness.make_batch 8) ]); (2, []); (3, []) ]
  in
  check Alcotest.bool "answers that disagree wait the grace period" false early

(* Replica 1 holds round 0 from view 0 (primary 0) when replica 2 takes
   over in view 1 and proposes another batch there. Unprepared, the old
   digest yields: replica 1 prepares the new batch without blaming its
   primary. Prepared, it keeps refusing the new batch (that old batch may
   have committed elsewhere) and blames the new primary. *)
let stale_round_then_new_view ~prepared_before =
  let t = H.create ~n:4 ~unified:true () in
  let inst = H.inst t 1 in
  let old_batch = Harness.make_batch 3 and new_batch = Harness.make_batch 4 in
  let module Msg = Rcc_messages.Msg in
  let digest (b : Rcc_messages.Batch.t) = b.Rcc_messages.Batch.digest in
  P.handle inst ~src:0
    (Msg.Pre_prepare { instance = 0; view = 0; seq = 0; batch = old_batch });
  if prepared_before then
    P.handle inst ~src:3
      (Msg.Prepare { instance = 0; view = 0; seq = 0; digest = digest old_batch });
  check Alcotest.bool "prepared in view 0" prepared_before
    (P.prepared_round inst ~round:0);
  P.set_primary inst 2 ~view:1;
  P.handle inst ~src:2
    (Msg.Pre_prepare { instance = 0; view = 1; seq = 0; batch = new_batch });
  P.handle inst ~src:3
    (Msg.Prepare { instance = 0; view = 1; seq = 0; digest = digest new_batch });
  (P.prepared_round inst ~round:0, (H.node t 1).H.failures)

let test_stale_round_yields_to_new_view () =
  let prepared, failures = stale_round_then_new_view ~prepared_before:false in
  check Alcotest.bool "new view's batch prepared" true prepared;
  check Alcotest.(list (pair int int)) "no blame" [] failures;
  let _, failures = stale_round_then_new_view ~prepared_before:true in
  check Alcotest.(list (pair int int)) "a prepared round is defended"
    [ (0, 2) ] failures

let test_equivocating_primary_never_commits () =
  let byz self = if self = 0 then Byz.equivocator else Byz.honest in
  let t = H.create ~n:4 ~byz ~timeout:(Rcc_sim.Engine.ms 50) ~unified:true () in
  H.submit t ~replica:0 (Harness.make_batch 1);
  H.run t 0.4;
  (* Safety: conflicting proposals split the PREPAREs; no honest replica
     can reach a 2f+1 quorum on either digest. *)
  for r = 1 to 3 do
    check Alcotest.(option int)
      (Printf.sprintf "replica %d accepted nothing" r)
      None
      (H.accepted_batch_id t ~replica:r ~round:0)
  done;
  (* Liveness: the backups blame the primary. *)
  check Alcotest.bool "equivocator blamed" true
    (List.exists
       (fun r -> List.exists (fun (_, blamed) -> blamed = 0) (H.node t r).H.failures)
       [ 1; 2; 3 ])

let test_checkpoint_gc () =
  let t = H.create ~n:4 () in
  (* checkpoint_interval is 64 in the harness; push well past it. *)
  for id = 0 to 150 do
    H.submit t ~replica:0 (Harness.make_batch id)
  done;
  H.run t 0.5;
  check Alcotest.bool "stable checkpoint advanced" true
    (P.stable_checkpoint (H.inst t 1) >= 64);
  check Alcotest.(option int) "recent rounds still accepted" (Some 150)
    (H.accepted_batch_id t ~replica:1 ~round:150);
  (* The checkpoint log retains the proofs with f+1 attesters. *)
  let log = P.checkpoint_log (H.inst t 1) in
  check Alcotest.bool "checkpoint log populated" true
    (Rcc_storage.Checkpoint_store.count log >= 2);
  (match Rcc_storage.Checkpoint_store.stable log with
  | Some proof ->
      check Alcotest.bool "enough attesters" true
        (List.length proof.Rcc_storage.Checkpoint_store.attesters >= 2)
  | None -> Alcotest.fail "no stable checkpoint proof")

let test_wrong_view_messages_ignored () =
  let t = H.create ~n:4 () in
  let inst = H.inst t 1 in
  let batch = Harness.make_batch 3 in
  (* A pre-prepare claiming a future view is not from the current primary's
     view and must be ignored. *)
  P.handle inst ~src:0
    (Rcc_messages.Msg.Pre_prepare { instance = 0; view = 5; seq = 0; batch });
  check Alcotest.(option int) "future-view proposal ignored" None
    (H.accepted_batch_id t ~replica:1 ~round:0);
  (* Same for a prepare with a mismatched view. *)
  P.handle inst ~src:2
    (Rcc_messages.Msg.Prepare { instance = 0; view = 5; seq = 0; digest = batch.Rcc_messages.Batch.digest });
  check Alcotest.bool "no prepared state from stray view" false
    (P.prepared_round inst ~round:0)

let test_prepared_predicate () =
  let t = H.create ~n:4 () in
  H.submit t ~replica:0 (Harness.make_batch 0);
  H.run t 0.01;
  check Alcotest.bool "round 0 prepared at backup" true
    (P.prepared_round (H.inst t 1) ~round:0);
  check Alcotest.bool "unknown round not prepared" false
    (P.prepared_round (H.inst t 1) ~round:42)

(* Agreement property under random workload shapes: whatever the batch
   count and cluster size, every replica accepts the same sequence. *)
let agreement_property =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:25 ~name:"pbft: agreement over random workloads"
       QCheck2.Gen.(pair (int_range 1 15) (oneofl [ 4; 7 ]))
       (fun (nbatches, n) ->
         let t = H.create ~n () in
         for id = 0 to nbatches - 1 do
           H.submit t ~replica:0 (Harness.make_batch id)
         done;
         H.run t 0.2;
         let ok = ref true in
         for round = 0 to nbatches - 1 do
           let reference = H.accepted_batch_id t ~replica:0 ~round in
           if Option.is_none reference then ok := false;
           for r = 1 to n - 1 do
             if H.accepted_batch_id t ~replica:r ~round <> reference then ok := false
           done
         done;
         !ok))

let suite =
  ( "pbft",
    [
      agreement_property;
      Alcotest.test_case "normal case" `Quick test_normal_case;
      Alcotest.test_case "pipelined rounds" `Quick test_pipelined_rounds;
      Alcotest.test_case "agreement (R3)" `Quick test_agreement_r3;
      Alcotest.test_case "non-primary ignored" `Quick test_backup_ignores_non_primary_proposal;
      Alcotest.test_case "dark replica detection (R2)" `Quick test_dark_replica_detects_failure;
      Alcotest.test_case "standalone view change (R4)" `Quick test_standalone_view_change;
      Alcotest.test_case "view change re-proposes" `Quick test_view_change_reproposes;
      Alcotest.test_case "unified set_primary" `Quick test_unified_set_primary;
      Alcotest.test_case "adopt via contract" `Quick test_adopt_via_contract;
      Alcotest.test_case "single holder re-proposed, not nulled" `Quick
        test_single_holder_takeover;
      Alcotest.test_case "stale unprepared round yields to a new view" `Quick
        test_stale_round_yields_to_new_view;
      Alcotest.test_case "equivocation never commits" `Quick
        test_equivocating_primary_never_commits;
      Alcotest.test_case "checkpoint GC" `Quick test_checkpoint_gc;
      Alcotest.test_case "wrong-view messages ignored" `Quick
        test_wrong_view_messages_ignored;
      Alcotest.test_case "prepared predicate" `Quick test_prepared_predicate;
    ] )
