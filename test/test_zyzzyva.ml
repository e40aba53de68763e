(* Zyzzyva instance tests: speculative in-order acceptance, history
   chaining, commit certificates, dark-replica behaviour. *)

module H = Harness.Make (Rcc_zyzzyva.Zyzzyva_instance)
module Z = Rcc_zyzzyva.Zyzzyva_instance
module Byz = Rcc_replica.Byz
module Msg = Rcc_messages.Msg

let check = Alcotest.check

let test_speculative_accept () =
  let t = H.create ~n:4 () in
  H.submit t ~replica:0 (Harness.make_batch 1);
  H.run t 0.01;
  for r = 0 to 3 do
    check Alcotest.(option int)
      (Printf.sprintf "replica %d accepted speculatively" r)
      (Some 1)
      (H.accepted_batch_id t ~replica:r ~round:0)
  done;
  (* Acceptance is flagged speculative. *)
  let acc = Hashtbl.find (H.node t 1).H.accepted 0 in
  check Alcotest.bool "speculative flag" true acc.Rcc_replica.Acceptance.speculative;
  check Alcotest.bool "history digest present" true
    (String.length acc.Rcc_replica.Acceptance.history > 0)

let test_history_chains_equal () =
  let t = H.create ~n:4 () in
  for id = 0 to 9 do
    H.submit t ~replica:0 (Harness.make_batch id)
  done;
  H.run t 0.05;
  let h1 = Z.history_digest (H.inst t 1) in
  let h2 = Z.history_digest (H.inst t 2) in
  check Alcotest.string "histories agree" (Rcc_common.Bytes_util.hex h1)
    (Rcc_common.Bytes_util.hex h2);
  (* Histories actually chain: per-round history digests differ. *)
  let a0 = Hashtbl.find (H.node t 1).H.accepted 0 in
  let a1 = Hashtbl.find (H.node t 1).H.accepted 1 in
  check Alcotest.bool "chained digests differ" false
    (String.equal a0.Rcc_replica.Acceptance.history a1.Rcc_replica.Acceptance.history)

let test_in_order_acceptance () =
  (* A replica buffering an out-of-order ORDER-REQUEST accepts only once
     the gap fills, preserving sequence order. *)
  let t = H.create ~n:4 () in
  let b0 = Harness.make_batch 0 and b1 = Harness.make_batch 1 in
  let inst3 = H.inst t 3 in
  Z.handle inst3 ~src:0
    (Msg.Order_request { instance = 0; view = 0; seq = 1; batch = b1; history = "" });
  check Alcotest.(option int) "gap blocks seq 1" None
    (H.accepted_batch_id t ~replica:3 ~round:1);
  Z.handle inst3 ~src:0
    (Msg.Order_request { instance = 0; view = 0; seq = 0; batch = b0; history = "" });
  check Alcotest.(option int) "seq 0 accepted" (Some 0)
    (H.accepted_batch_id t ~replica:3 ~round:0);
  check Alcotest.(option int) "seq 1 drains after gap fills" (Some 1)
    (H.accepted_batch_id t ~replica:3 ~round:1)

let test_commit_cert_local_commit () =
  let t = H.create ~n:4 () in
  H.submit t ~replica:0 (Harness.make_batch 3);
  H.run t 0.01;
  (* A client with 2f+1 matching spec-responses sends a commit cert. *)
  let inst1 = H.inst t 1 in
  Z.handle inst1 ~src:0
    (Msg.Commit_cert
       {
         cc_instance = 0;
         cc_seq = 0;
         cc_client = 0;
         cc_digest = "";
         cc_replicas = [ 0; 1; 2 ];
       });
  check Alcotest.int "committed watermark" 0 (Z.committed_upto inst1);
  check Alcotest.bool "local-commit sent to client" true
    (List.exists
       (function Msg.Local_commit _ -> true | _ -> false)
       (H.node t 1).H.responses)

let test_commit_cert_beyond_accept_triggers_blame () =
  (* A commit certificate for a sequence number the replica never accepted
     is client-relayed evidence that the primary skipped it. *)
  let t = H.create ~n:4 ~unified:true () in
  let inst2 = H.inst t 2 in
  Z.handle inst2 ~src:0
    (Msg.Commit_cert
       {
         cc_instance = 0;
         cc_seq = 5;
         cc_client = 0;
         cc_digest = "";
         cc_replicas = [ 0; 1; 3 ];
       });
  check Alcotest.bool "failure reported" true ((H.node t 2).H.failures <> [])

let test_non_primary_order_request_ignored () =
  let t = H.create ~n:4 () in
  let b = Harness.make_batch 6 in
  (* Replica 2 is not the primary of this instance. *)
  Z.handle (H.inst t 1) ~src:2
    (Msg.Order_request { instance = 0; view = 0; seq = 0; batch = b; history = "" });
  check Alcotest.(option int) "forged ordering ignored" None
    (H.accepted_batch_id t ~replica:1 ~round:0);
  (* Same message from a stale view. *)
  Z.handle (H.inst t 1) ~src:0
    (Msg.Order_request { instance = 0; view = 3; seq = 0; batch = b; history = "" });
  check Alcotest.(option int) "stale view ignored" None
    (H.accepted_batch_id t ~replica:1 ~round:0)

let test_dark_replica_stalls () =
  let byz self =
    if self = 0 then Byz.dark_primary ~victims:[ 2 ] () else Byz.honest
  in
  let t = H.create ~n:4 ~byz ~timeout:(Rcc_sim.Engine.ms 50) ~unified:true () in
  for id = 0 to 3 do
    H.submit t ~replica:0 (Harness.make_batch id)
  done;
  H.run t 0.4;
  check Alcotest.(option int) "victim accepted nothing" None
    (H.accepted_batch_id t ~replica:2 ~round:0);
  check Alcotest.(option int) "others fine" (Some 0)
    (H.accepted_batch_id t ~replica:1 ~round:0);
  (* Zyzzyva's fully-dark backup has no local evidence (no prepares exist);
     recovery must come from clients or RCC contracts. *)
  check Alcotest.int "victim saw no round (no evidence)" (-1)
    (Z.max_seen (H.inst t 2))

let test_adopt_fills_gap () =
  let byz self =
    if self = 0 then Byz.dark_primary ~victims:[ 2 ] () else Byz.honest
  in
  let t = H.create ~n:4 ~byz ~unified:true () in
  H.submit t ~replica:0 (Harness.make_batch 8);
  H.run t 0.01;
  (match H.accepted t ~replica:1 ~round:0 with
  | Some a -> Z.adopt (H.inst t 2) ~round:0 a.Rcc_replica.Acceptance.batch ~cert:a.cert
  | None -> Alcotest.fail "source replica should have accepted");
  check Alcotest.(option int) "victim adopted" (Some 8)
    (H.accepted_batch_id t ~replica:2 ~round:0)

let test_set_primary_reproposes () =
  let t = H.create ~n:4 ~unified:true () in
  for id = 0 to 2 do
    H.submit t ~replica:0 (Harness.make_batch id)
  done;
  H.run t 0.01;
  for r = 0 to 3 do
    Z.set_primary (H.inst t r) 1 ~view:1
  done;
  H.submit t ~replica:1 (Harness.make_batch 50);
  H.run t 0.05;
  let found =
    List.exists
      (fun round -> H.accepted_batch_id t ~replica:2 ~round = Some 50)
      [ 0; 1; 2; 3; 4 ]
  in
  check Alcotest.bool "new primary orders" true found

let agreement_property =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:25
       ~name:"zyzzyva: speculative agreement over random workloads"
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
         (* Speculative histories must agree too. *)
         let h0 = Z.history_digest (H.inst t 0) in
         for r = 1 to n - 1 do
           if not (String.equal h0 (Z.history_digest (H.inst t r))) then ok := false
         done;
         !ok))

(* A new primary's conflicting orders for rounds 2 and 1 reach a backup
   that speculatively accepted the deposed primary's rounds 0-2 in that
   order: round 2 rolls back first, then round 1. The second rollback
   retracts the re-accepted round 2 rather than erasing it, so the drain
   re-accepts both new orders and nothing waits on a re-send. *)
let test_out_of_order_conflicts () =
  let t = H.create ~n:4 () in
  let inst3 = H.inst t 3 in
  let order ~src ~view ~seq id =
    Z.handle inst3 ~src
      (Msg.Order_request
         { instance = 0; view; seq; batch = Harness.make_batch id; history = "" })
  in
  for seq = 0 to 2 do
    order ~src:0 ~view:0 ~seq seq
  done;
  Z.set_primary inst3 1 ~view:1;
  order ~src:1 ~view:1 ~seq:2 12;
  order ~src:1 ~view:1 ~seq:1 11;
  check Alcotest.(list int) "rolled back at 2, then at 1" [ 1; 2 ]
    (H.node t 3).H.rollbacks;
  check
    Alcotest.(list (option int))
    "the new view's orders accepted" [ Some 0; Some 11; Some 12 ]
    (List.init 3 (fun round -> H.accepted_batch_id t ~replica:3 ~round))

let suite =
  ( "zyzzyva",
    [
      agreement_property;
      Alcotest.test_case "speculative accept" `Quick test_speculative_accept;
      Alcotest.test_case "history chains equal" `Quick test_history_chains_equal;
      Alcotest.test_case "in-order acceptance" `Quick test_in_order_acceptance;
      Alcotest.test_case "commit cert -> local commit" `Quick test_commit_cert_local_commit;
      Alcotest.test_case "commit cert blame" `Quick test_commit_cert_beyond_accept_triggers_blame;
      Alcotest.test_case "non-primary order ignored" `Quick
        test_non_primary_order_request_ignored;
      Alcotest.test_case "dark replica stalls" `Quick test_dark_replica_stalls;
      Alcotest.test_case "adopt fills gap" `Quick test_adopt_fills_gap;
      Alcotest.test_case "set_primary re-proposes" `Quick test_set_primary_reproposes;
      Alcotest.test_case "out-of-order conflicts" `Quick test_out_of_order_conflicts;
    ] )
