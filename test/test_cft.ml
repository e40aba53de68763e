(* Crash-fault-tolerant instance tests (the §8 extension). *)

module H = Harness.Make (Rcc_cft.Cft_instance)
module C = Rcc_cft.Cft_instance

let check = Alcotest.check

let test_two_phase_commit () =
  let t = H.create ~n:4 () in
  H.submit t ~replica:0 (Harness.make_batch 1);
  H.run t 0.01;
  for r = 0 to 3 do
    check Alcotest.(option int)
      (Printf.sprintf "replica %d accepted" r)
      (Some 1)
      (H.accepted_batch_id t ~replica:r ~round:0)
  done;
  check Alcotest.bool "backup acked" true (C.acked_round (H.inst t 1) ~round:0)

let test_linear_message_complexity () =
  (* Unlike PBFT, backups only talk to the primary: replica 2 must accept
     without ever hearing from replica 1 and vice versa — verified
     indirectly by the pipelined run finishing despite majority = 3 with
     only primary-relayed communication. *)
  let t = H.create ~n:5 () in
  for id = 0 to 9 do
    H.submit t ~replica:0 (Harness.make_batch id)
  done;
  H.run t 0.05;
  for round = 0 to 9 do
    check Alcotest.(option int)
      (Printf.sprintf "round %d" round)
      (Some round)
      (H.accepted_batch_id t ~replica:4 ~round)
  done

let test_survives_minority_crash () =
  let t = H.create ~n:5 () in
  (* n=5 tolerates 2 crash faults with majority 3. *)
  H.kill t 3;
  H.kill t 4;
  H.submit t ~replica:0 (Harness.make_batch 8);
  H.run t 0.05;
  check Alcotest.(option int) "accepted with minority down" (Some 8)
    (H.accepted_batch_id t ~replica:1 ~round:0)

let test_view_change_on_dark_primary () =
  let byz self =
    if self = 0 then Rcc_replica.Byz.dark_primary ~victims:[ 1; 2; 3 ] ()
    else Rcc_replica.Byz.honest
  in
  let t = H.create ~n:4 ~byz ~timeout:(Rcc_sim.Engine.ms 50) () in
  H.submit t ~replica:0 (Harness.make_batch 1);
  H.run t 1.0;
  (* Nobody but the primary saw the proposal; with no evidence there is no
     round to blame — submit again after making the backups aware via a
     second batch routed through a view change... here we simply check the
     healthy case: the primary's own accept does not complete a majority. *)
  check Alcotest.(option int) "fully dark proposal cannot commit" None
    (H.accepted_batch_id t ~replica:1 ~round:0)

let test_standalone_election () =
  (* Drive the majority election directly: three of four replicas vote
     for view 1, whose primary is replica 1. *)
  let t = H.create ~n:4 () in
  let inst1 = H.inst t 1 in
  List.iter
    (fun src ->
      C.handle inst1 ~src
        (Rcc_messages.Msg.View_change
           { instance = 0; new_view = 1; blamed = 0; round = 0; last_exec = -1;
             signature = "" }))
    [ 0; 2; 3 ];
  check Alcotest.int "replica 1 installs itself" 1 (C.primary inst1);
  (* And it can lead immediately, in the new view. *)
  H.submit t ~replica:1 (Harness.make_batch 3);
  H.run t 0.05;
  check Alcotest.bool "view advanced" true
    (List.exists
       (function _, Rcc_messages.Msg.Pre_prepare { view = 1; _ } -> true | _ -> false)
       (H.sent t ~replica:1));
  check Alcotest.(option int) "post-election proposal accepted at self" (Some 3)
    (H.accepted_batch_id t ~replica:1 ~round:0)

let test_unified_set_primary () =
  let t = H.create ~n:4 ~unified:true () in
  for r = 0 to 3 do
    C.set_primary (H.inst t r) 2 ~view:1
  done;
  H.submit t ~replica:2 (Harness.make_batch 9);
  H.run t 0.05;
  check Alcotest.(option int) "new primary leads" (Some 9)
    (H.accepted_batch_id t ~replica:0 ~round:0)

let test_held_batch_mid_transfer () =
  (* Regression: a batch submitted inside the leader-transfer grace
     window used to be proposed over unknown in-flight slots (or, once
     the window existed, dropped); it must be held and flushed when the
     takeover completes. *)
  let t = H.create ~n:4 ~unified:true () in
  for r = 0 to 3 do
    C.set_primary (H.inst t r) 2 ~view:1
  done;
  H.submit t ~replica:2 (Harness.make_batch 5);
  H.run t 0.1;
  for r = 0 to 3 do
    check Alcotest.(option int)
      (Printf.sprintf "replica %d accepted the held batch" r)
      (Some 5)
      (H.accepted_batch_id t ~replica:r ~round:0)
  done

let test_stale_acks_cannot_certify () =
  (* Regression: a majority of acks for a round the primary holds no
     batch for used to broadcast COMMIT-NOTIFY with digest "" and mark
     the round notified — so when the real batch later arrived, the
     notify was never re-sent and backups stalled forever. The empty
     digest must not certify; the round completes once the batch does. *)
  let t = H.create ~n:5 () in
  let inst0 = H.inst t 0 in
  List.iter
    (fun src ->
      C.handle inst0 ~src
        (Rcc_messages.Msg.Prepare
           { instance = 0; view = 0; seq = 0; digest = "stale" }))
    [ 1; 2; 3 ];
  H.submit t ~replica:0 (Harness.make_batch 5);
  H.run t 0.05;
  for r = 0 to 4 do
    check Alcotest.(option int)
      (Printf.sprintf "replica %d accepted the real batch" r)
      (Some 5)
      (H.accepted_batch_id t ~replica:r ~round:0)
  done

let test_adopt () =
  let t = H.create ~n:4 () in
  H.submit t ~replica:0 (Harness.make_batch 4);
  H.run t 0.01;
  let t2 = H.create ~n:4 () in
  (match H.accepted t ~replica:1 ~round:0 with
  | Some a -> C.adopt (H.inst t2 3) ~round:0 a.Rcc_replica.Acceptance.batch ~cert:a.cert
  | None -> Alcotest.fail "source should have accepted");
  check Alcotest.(option int) "adopted across deployments" (Some 4)
    (H.accepted_batch_id t2 ~replica:3 ~round:0)

let agreement_property =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:25 ~name:"cft: agreement over random workloads"
       QCheck2.Gen.(pair (int_range 1 15) (oneofl [ 4; 5; 7 ]))
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
  ( "cft",
    [
      agreement_property;
      Alcotest.test_case "two-phase commit" `Quick test_two_phase_commit;
      Alcotest.test_case "linear pipelining" `Quick test_linear_message_complexity;
      Alcotest.test_case "minority crash" `Quick test_survives_minority_crash;
      Alcotest.test_case "dark primary cannot commit" `Quick test_view_change_on_dark_primary;
      Alcotest.test_case "standalone election" `Quick test_standalone_election;
      Alcotest.test_case "unified set_primary" `Quick test_unified_set_primary;
      Alcotest.test_case "held batch mid-transfer" `Quick
        test_held_batch_mid_transfer;
      Alcotest.test_case "stale acks cannot certify" `Quick
        test_stale_acks_cannot_certify;
      Alcotest.test_case "adopt" `Quick test_adopt;
    ] )
