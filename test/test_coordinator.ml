(* Unification coordinator tests: unified replacement (Lemma 5.1),
   collusion detection, recovery strategies. *)

module Coordinator = Rcc_core.Coordinator
module Exec = Rcc_replica.Exec
module Engine = Rcc_sim.Engine
module Msg = Rcc_messages.Msg
module Batch = Rcc_messages.Batch

let check = Alcotest.check

let rng = Rcc_common.Rng.create 77
let secret, _ = Rcc_crypto.Signature.keygen rng

let batch id =
  Batch.create ~id ~client:0
    ~txns:[| Rcc_workload.Txn.{ key = id; op = Write id } |]
    ~secret

type fixture = {
  engine : Engine.t;
  coordinator : Coordinator.t;
  exec : Exec.t;
  kc : Rcc_crypto.Keychain.t;
  set_primary_log : (int * int) list ref;  (* (instance, new primary) *)
  adopted : (int * int * int) list ref;  (* (instance, round, batch id) *)
  witnesses : int list list ref;  (* per adoption, newest first *)
  answered : (int * int * int) list ref;  (* (instance, src, max_seen) *)
  reported : (int * (int * int) list) list ref;
      (* per answer, newest first: (src, (round, batch id) reported) *)
  broadcasts : Msg.t list ref;
  metrics : Rcc_replica.Metrics.t;
}

let make ?(n = 7) ?(z = 3) ?(recovery = Coordinator.Optimistic)
    ?(collusion_wait = Engine.ms 10) () =
  let f = (n - 1) / 3 in
  let kc = Rcc_crypto.Keychain.create ~seed:77 ~n ~clients:1 in
  let engine = Engine.create () in
  let metrics = Rcc_replica.Metrics.create ~n ~warmup:0 () in
  let store = Rcc_storage.Kv_store.create () in
  let ledger = Rcc_storage.Ledger.create ~primaries:(List.init z (fun x -> x)) in
  let txn_table = Rcc_storage.Txn_table.create ~z in
  let server = Rcc_sim.Cpu.server engine ~name:"exec" () in
  let exec =
    Exec.create ~engine ~costs:Rcc_sim.Costs.default ~server ~z ~self:0 ~store
      ~ledger ~txn_table
      ~current_primaries:(fun () -> List.init z (fun x -> x))
      ~respond:(fun _ _ -> ())
      ~metrics ()
  in
  let set_primary_log = ref [] in
  let adopted = ref [] in
  let witnesses = ref [] in
  let answered = ref [] in
  let reported = ref [] in
  let broadcasts = ref [] in
  let primaries = Array.init z (fun x -> x) in
  let handles =
    Array.init z (fun x ->
        {
          Coordinator.h_set_primary =
            (fun r ~view:_ ->
              primaries.(x) <- r;
              set_primary_log := (x, r) :: !set_primary_log);
          h_adopt =
            (fun ~round b ~witnesses:w ->
              adopted := (x, round, b.Batch.id) :: !adopted;
              witnesses := w :: !witnesses);
          h_answered =
            (fun ~src ~max_seen ~reported:r ->
              answered := (x, src, max_seen) :: !answered;
              reported :=
                (src, List.map (fun (round, b) -> (round, b.Batch.id)) r)
                :: !reported);
          h_max_seen = (fun () -> 10 + x);
          h_primary = (fun () -> primaries.(x));
        })
  in
  let coordinator =
    Coordinator.create
      {
        Coordinator.n;
        f;
        z;
        self = 0;
        collusion_wait;
        recovery;
      }
      ~engine ~keychain:kc ~handles ~exec ~metrics
      ~broadcast:(fun ?size:_ msg -> broadcasts := msg :: !broadcasts)
      ~send:(fun ?size:_ ~dst:_ msg -> broadcasts := msg :: !broadcasts)
  in
  Exec.set_on_executed exec (fun round ->
      Coordinator.on_round_executed coordinator ~round);
  {
    engine;
    coordinator;
    exec;
    kc;
    set_primary_log;
    adopted;
    witnesses;
    answered;
    reported;
    broadcasts;
    metrics;
  }

(* A properly signed accusation from [src] at the instance's CURRENT view
   (what an honest replica's liveness monitor produces). *)
let blame fx ~src ~instance ~blamed ~round =
  let view = Coordinator.view_of fx.coordinator instance in
  let signature =
    Coordinator.sign_blame fx.kc ~signer:src ~instance ~view ~blamed ~round
  in
  Coordinator.on_msg fx.coordinator ~src
    (Msg.View_change
       {
         instance;
         new_view = view + 1;
         blamed;
         round;
         last_exec = round - 1;
         signature;
       })

let contract_request fx ~src ~round ~instance =
  Coordinator.on_msg fx.coordinator ~src
    (Msg.Contract_request { round; instance })

let contract_reply fx ~src ~instance ~round ~max_seen entries =
  Coordinator.on_msg fx.coordinator ~src
    (Msg.Contract_reply { instance; round; max_seen; entries })

(* A VIEW-SYNC from replica 6; adoption never depends on its sender. *)
let view_sync coordinator ~instance ~view ~primary ~kmal ~cert =
  Coordinator.on_msg coordinator ~src:6
    (Msg.View_sync { instance; view; primary; kmal; cert })

(* The f+1 certificate for the view step [view - 1 -> view]: each accuser
   signs the blame digest naming the rotation's view-(view-1) primary.
   Mirrors what [process_replacements] snapshots on a real replacement. *)
let cert_for fx ~instance ~view ~deposed ~accusers =
  List.map
    (fun src ->
      {
        Msg.bv_accuser = src;
        bv_round = 0;
        bv_sig =
          Coordinator.sign_blame fx.kc ~signer:src ~instance ~view:(view - 1)
            ~blamed:deposed ~round:0;
      })
    accusers

let acceptance ~instance ~round id =
  {
    Rcc_replica.Acceptance.instance;
    round;
    batch = batch id;
    cert = [ 0; 1; 2; 3; 4 ];
    speculative = false;
    history = "";
  }

(* Make round [r] pending with every instance except [except] accepted, so
   the ordering condition of §3.4.2 is satisfiable. *)
let fill_round fx ~z ~round ~except =
  for x = 0 to z - 1 do
    if x <> except then Exec.notify fx.exec (acceptance ~instance:x ~round (100 + x))
  done

let test_unified_replacement () =
  let fx = make () in
  (* n=7, f=2: instance 1's primary gets blamed by f+1 = 3 replicas. *)
  fill_round fx ~z:3 ~round:0 ~except:1;
  blame fx ~src:3 ~instance:1 ~blamed:1 ~round:0;
  blame fx ~src:4 ~instance:1 ~blamed:1 ~round:0;
  check Alcotest.(list (pair int int)) "not yet (f blames)" [] !(fx.set_primary_log);
  Coordinator.accuse fx.coordinator ~instance:1 ~round:0 ~blamed:1;
  (* n=7, z=3: instance 1's residue class is {1, 4}; view 1 picks 4. *)
  check
    Alcotest.(list (pair int int))
    "replaced with next in residue class" [ (1, 4) ] !(fx.set_primary_log);
  check Alcotest.(list int) "old primary known malicious" [ 1 ]
    (Coordinator.known_malicious fx.coordinator);
  check Alcotest.(list int) "primaries updated" [ 0; 4; 2 ]
    (Coordinator.primaries fx.coordinator);
  check Alcotest.int "replacement counted" 1 (Coordinator.replacements fx.coordinator)

(* This replica's own accusations, as an instance's watchdog ([accuse])
   and the liveness monitor ([on_stall]) make them: each records one
   blame event and is signed once. [accuse] hands the VIEW-CHANGE to its
   announcer before counting it; [on_stall] broadcasts each VIEW-CHANGE
   after counting it, then one CONTRACT-REQUEST per missing instance.
   The signature that goes out is the one counted: a peer holding two
   other blames replaces instance 1's primary on the announced one. *)
let test_own_accusations () =
  let fx = make () in
  let tracer = Rcc_trace.Recorder.create () in
  Engine.set_tracer fx.engine tracer;
  let announced = ref [] in
  Coordinator.accuse fx.coordinator
    ~announce:(fun msg -> announced := msg :: !announced)
    ~instance:1 ~round:0 ~blamed:1;
  Coordinator.on_stall fx.coordinator ~round:0 ~missing:[ 0; 2 ];
  let blames =
    List.filter_map
      (fun (e : Rcc_trace.Event.t) ->
        match e.Rcc_trace.Event.payload with
        | Rcc_trace.Event.Blame { blamed; accuser; _ } -> Some (blamed, accuser)
        | _ -> None)
      (Rcc_trace.Recorder.to_list tracer)
  in
  check
    Alcotest.(list (pair int int))
    "one blame event per accusation" [ (1, 0); (0, 0); (2, 0) ] blames;
  check
    Alcotest.(list string)
    "stall: accusations, then requests"
    [ "view_change"; "view_change"; "contract_request"; "contract_request" ]
    (List.rev_map Msg.kind !(fx.broadcasts));
  let peer = make () in
  fill_round peer ~z:3 ~round:0 ~except:1;
  blame peer ~src:3 ~instance:1 ~blamed:1 ~round:0;
  blame peer ~src:4 ~instance:1 ~blamed:1 ~round:0;
  (match !announced with
  | [ (Msg.View_change { instance = 1; new_view = 1; blamed = 1; _ } as msg) ]
    ->
      Coordinator.on_msg peer.coordinator ~src:0 msg
  | _ -> Alcotest.fail "expected one VIEW-CHANGE for instance 1 at view 0");
  check Alcotest.int "the announced accusation verifies" 1
    (Coordinator.replacements peer.coordinator)

let test_replacement_rotates_within_residue_class () =
  let fx = make () in
  fill_round fx ~z:3 ~round:0 ~except:1;
  (* Blame instance 1. Its primaries rotate through the residue class
     {1, 4}: other instances' classes ({0,3,6} and {2,5}) are disjoint,
     so replacements can never produce a duplicate primary even when
     replicas conclude them from divergent blame histories. *)
  List.iter
    (fun src -> blame fx ~src ~instance:1 ~blamed:1 ~round:0)
    [ 3; 4; 5 ];
  check Alcotest.(list int) "4 chosen, not 0/2" [ 0; 4; 2 ]
    (Coordinator.primaries fx.coordinator);
  (* Now instance 1's NEW primary (4) fails too: the class wraps to 1. *)
  fill_round fx ~z:3 ~round:1 ~except:1;
  List.iter
    (fun src -> blame fx ~src ~instance:1 ~blamed:4 ~round:1)
    [ 4; 5; 6 ];
  check Alcotest.(list int) "wraps back to 1" [ 0; 1; 2 ]
    (Coordinator.primaries fx.coordinator)

let test_stale_blames_ignored () =
  let fx = make () in
  fill_round fx ~z:3 ~round:0 ~except:1;
  (* Blaming a replica that is not the instance's current primary is
     ignored. *)
  List.iter
    (fun src -> blame fx ~src ~instance:1 ~blamed:2 ~round:0)
    [ 3; 4; 5 ];
  check Alcotest.(list (pair int int)) "no replacement" [] !(fx.set_primary_log)

let test_lemma_5_1_order_independence () =
  (* Two coordinators receiving the same evidence in different orders end
     with the same primary assignment (Lemma 5.1). *)
  let run order =
    let fx = make () in
    (* Round 0: only instance 0 replicated; instances 1 and 2 both have
       failed primaries, so their replacements must be handled in
       deterministic (round, instance) order regardless of evidence
       arrival order. *)
    Exec.notify fx.exec (acceptance ~instance:0 ~round:0 100);
    List.iter
      (fun (instance, blamed, src) -> blame fx ~src ~instance ~blamed ~round:0)
      order;
    Coordinator.primaries fx.coordinator
  in
  let evidence_a =
    [ (1, 1, 3); (1, 1, 4); (1, 1, 5); (2, 2, 3); (2, 2, 4); (2, 2, 5) ]
  in
  let evidence_b =
    [ (2, 2, 5); (1, 1, 4); (2, 2, 3); (1, 1, 5); (2, 2, 4); (1, 1, 3) ]
  in
  check Alcotest.(list int) "same final primaries" (run evidence_a) (run evidence_b)

let test_collusion_detected_on_spread_blames () =
  let fx = make ~collusion_wait:(Engine.ms 10) () in
  (* f+1 = 3 distinct accusers, no instance with 3: collusion. *)
  fill_round fx ~z:3 ~round:0 ~except:1;
  blame fx ~src:3 ~instance:1 ~blamed:1 ~round:0;
  blame fx ~src:4 ~instance:2 ~blamed:2 ~round:0;
  blame fx ~src:5 ~instance:0 ~blamed:0 ~round:0;
  Engine.run fx.engine ~until:(Engine.ms 50);
  check Alcotest.int "collusion detected" 1
    (Rcc_replica.Metrics.collusions_detected fx.metrics);
  check Alcotest.bool "contract broadcast" true
    (List.exists (function Msg.Contract _ -> true | _ -> false) !(fx.broadcasts));
  check Alcotest.(list (pair int int)) "no replacement on false alarm" []
    !(fx.set_primary_log)

let test_no_collusion_below_threshold () =
  let fx = make ~collusion_wait:(Engine.ms 10) () in
  blame fx ~src:3 ~instance:1 ~blamed:1 ~round:0;
  blame fx ~src:4 ~instance:2 ~blamed:2 ~round:0;
  Engine.run fx.engine ~until:(Engine.ms 200);
  check Alcotest.int "no collusion with f accusers" 0
    (Rcc_replica.Metrics.collusions_detected fx.metrics)

let test_collusion_redetects_after_recovery () =
  let fx = make ~collusion_wait:(Engine.ms 10) () in
  let feed () =
    blame fx ~src:3 ~instance:1 ~blamed:1 ~round:0;
    blame fx ~src:4 ~instance:2 ~blamed:2 ~round:0;
    blame fx ~src:5 ~instance:0 ~blamed:0 ~round:0
  in
  fill_round fx ~z:3 ~round:0 ~except:1;
  feed ();
  Engine.run fx.engine ~until:(Engine.ms 50);
  check Alcotest.int "first episode" 1
    (Rcc_replica.Metrics.collusions_detected fx.metrics);
  (* A later, separate attack: evidence arrives again and must re-arm the
     timer (blames were cleared after recovery). *)
  feed ();
  Engine.run fx.engine ~until:(Engine.ms 100);
  check Alcotest.int "second episode detected" 2
    (Rcc_replica.Metrics.collusions_detected fx.metrics)

(* One evaluation per collusion window: blames arriving while a window
   is armed join it and schedule nothing. A window opened at 0 ms
   evaluates at 10 ms, inconclusive with two accusers, and re-arms for
   20 ms; a third accuser at 12 ms must wait for that evaluation, not
   meet one that the 5 ms blame scheduled for 15 ms. *)
let test_collusion_window_evaluates_once () =
  let fx = make ~collusion_wait:(Engine.ms 10) () in
  let detected () = Rcc_replica.Metrics.collusions_detected fx.metrics in
  blame fx ~src:3 ~instance:1 ~blamed:1 ~round:0;
  Engine.run fx.engine ~until:(Engine.ms 5);
  blame fx ~src:4 ~instance:2 ~blamed:2 ~round:0;
  Engine.run fx.engine ~until:(Engine.ms 12);
  check Alcotest.int "inconclusive at 10 ms" 0 (detected ());
  blame fx ~src:5 ~instance:0 ~blamed:0 ~round:0;
  Engine.run fx.engine ~until:(Engine.ms 19);
  check Alcotest.int "no evaluation before the window ends" 0 (detected ());
  Engine.run fx.engine ~until:(Engine.ms 21);
  check Alcotest.int "detected when the re-armed window ends" 1 (detected ())

let test_view_shift_recovery () =
  let fx = make ~recovery:Coordinator.View_shift () in
  fill_round fx ~z:3 ~round:0 ~except:1;
  blame fx ~src:3 ~instance:1 ~blamed:1 ~round:0;
  blame fx ~src:4 ~instance:2 ~blamed:2 ~round:0;
  blame fx ~src:5 ~instance:0 ~blamed:0 ~round:0;
  Engine.run fx.engine ~until:(Engine.ms 50);
  (* Every instance moved to a fresh primary set. *)
  check Alcotest.int "three set_primary calls" 3 (List.length !(fx.set_primary_log));
  check Alcotest.bool "primaries rotated" true
    (Coordinator.primaries fx.coordinator <> [ 0; 1; 2 ])

let test_pessimistic_contract_every_round () =
  let fx = make ~recovery:Coordinator.Pessimistic () in
  fill_round fx ~z:3 ~round:0 ~except:(-1);
  fill_round fx ~z:3 ~round:1 ~except:(-1);
  Engine.run fx.engine ~until:(Engine.ms 100);
  let contracts =
    List.length
      (List.filter (function Msg.Contract _ -> true | _ -> false) !(fx.broadcasts))
  in
  check Alcotest.int "contract per round" 2 contracts

let contract_entry ?(cert = [ 0; 1; 2 ]) id =
  { Msg.ce_instance = 1; ce_round = 4; ce_batch = batch id; ce_cert_replicas = cert }

let contract fx ~src entry =
  Coordinator.on_msg fx.coordinator ~src
    (Msg.Contract { round = 4; entries = [ entry ] })

(* n = 7, f = 2: an entry is adopted once three distinct peers report it,
   with those three as its witnesses. *)
let test_on_contract_adopts () =
  let fx = make () in
  contract fx ~src:3 (contract_entry 9);
  contract fx ~src:4 (contract_entry 9);
  check Alcotest.(list (triple int int int)) "two responders: nothing" []
    !(fx.adopted);
  contract fx ~src:5 (contract_entry 9);
  check Alcotest.(list (triple int int int)) "the third adopts" [ (1, 4, 9) ]
    !(fx.adopted);
  check Alcotest.(list (list int)) "its witnesses" [ [ 3; 4; 5 ] ]
    !(fx.witnesses)

(* One responder's entry is never adopted, whatever certifiers it names
   and however often it repeats it. *)
let test_on_contract_rejects_thin_proof () =
  let fx = make () in
  let everyone = List.init 7 Fun.id in
  for _ = 1 to 5 do
    contract fx ~src:3 (contract_entry ~cert:everyone 9)
  done;
  check Alcotest.(list (triple int int int)) "nothing adopted" [] !(fx.adopted);
  (* Two more peers disagree with it: still no digest at three. *)
  contract fx ~src:4 (contract_entry 8);
  contract fx ~src:5 (contract_entry 7);
  check Alcotest.(list (triple int int int)) "split: nothing adopted" []
    !(fx.adopted)

(* The replies a request produced, as (instance, round) pairs per
   message, in wire order. *)
let contract_replies fx =
  List.filter_map
    (function
      | Msg.Contract_reply { entries; _ } ->
          Some
            (List.map
               (fun (e : Msg.contract_entry) -> (e.Msg.ce_instance, e.Msg.ce_round))
               entries)
      | _ -> None)
    (List.rev !(fx.broadcasts))

let test_contract_request_answered_from_history () =
  let fx = make () in
  (* Execute round 0 so it lands in coordinator history. *)
  fill_round fx ~z:3 ~round:0 ~except:(-1);
  Engine.run fx.engine ~until:(Engine.ms 100);
  contract_request fx ~src:5 ~round:0 ~instance:1;
  (* One entry: the requested instance's round, not all three. *)
  check
    Alcotest.(list (list (pair int int)))
    "only the requested instance" [ [ (1, 0) ] ] (contract_replies fx)

let test_contract_request_window_stops_at_hole () =
  let fx = make () in
  (* Rounds 0 and 1 execute (history ring); round 2 lacks instance 1 and
     round 3 lacks instance 0 (pending at the execute stage). *)
  fill_round fx ~z:3 ~round:0 ~except:(-1);
  fill_round fx ~z:3 ~round:1 ~except:(-1);
  Engine.run fx.engine ~until:(Engine.ms 100);
  fill_round fx ~z:3 ~round:2 ~except:1;
  fill_round fx ~z:3 ~round:3 ~except:0;
  contract_request fx ~src:5 ~round:0 ~instance:0;
  check
    Alcotest.(list (list (pair int int)))
    "instance 0: rounds 0-2, stops at round 3's hole"
    [ [ (0, 0); (0, 1); (0, 2) ] ]
    (contract_replies fx);
  fx.broadcasts := [];
  (* Instance 1 holds round 3 but not round 2: the window is contiguous. *)
  contract_request fx ~src:5 ~round:0 ~instance:1;
  check
    Alcotest.(list (list (pair int int)))
    "instance 1: rounds 0-1, stops at round 2's hole"
    [ [ (1, 0); (1, 1) ] ]
    (contract_replies fx);
  fx.broadcasts := [];
  (* A request starting at a hole has an empty window, answered all the
     same. *)
  contract_request fx ~src:5 ~round:2 ~instance:1;
  check
    Alcotest.(list (list (pair int int)))
    "empty window, empty reply" [ [] ] (contract_replies fx)

(* Every request is answered, an empty window too: the reply names the
   instance and the responder's watermark for it, which is what lets a
   fresh primary end its takeover without waiting out the grace period.
   Only a window that carries rounds counts as contract bytes. *)
let test_contract_request_empty_window_answered () =
  let fx = make () in
  contract_request fx ~src:5 ~round:0 ~instance:2;
  (match !(fx.broadcasts) with
  | [ Msg.Contract_reply { instance; round; max_seen; entries } ] ->
      check Alcotest.int "instance" 2 instance;
      check Alcotest.int "requested round" 0 round;
      check Alcotest.int "the instance's watermark" 12 max_seen;
      check Alcotest.int "no entries" 0 (List.length entries)
  | msgs ->
      Alcotest.failf "expected one reply, got %d messages" (List.length msgs));
  check Alcotest.int "an empty reply is not contract bytes" 0
    (Rcc_replica.Metrics.contract_bytes fx.metrics);
  fill_round fx ~z:3 ~round:0 ~except:(-1);
  Engine.run fx.engine ~until:(Engine.ms 100);
  contract_request fx ~src:5 ~round:0 ~instance:2;
  check Alcotest.bool "a non-empty window is" true
    (Rcc_replica.Metrics.contract_bytes fx.metrics > 0)

(* A reply is counted like a contract and handed to its instance as an
   answer, adopted or not; a Zyzzyva primary's own [p; p] window is one
   witness and one answer. A reply with an invalid window, an
   out-of-range instance or an out-of-range sender is not an answer. *)
let test_contract_reply_adopted_then_answered () =
  let fx = make () in
  let reply ~src cert =
    contract_reply fx ~src ~instance:1 ~round:4 ~max_seen:6
      [ contract_entry ~cert 9 ]
  in
  reply ~src:1 [ 1; 1 ];
  reply ~src:3 [ 0; 1; 2 ];
  check Alcotest.(list (triple int int int)) "two responders: nothing" []
    !(fx.adopted);
  check Alcotest.(list (triple int int int)) "both answered"
    [ (1, 3, 6); (1, 1, 6) ] !(fx.answered);
  check
    Alcotest.(list (pair int (list (pair int int))))
    "each answer carries its unadopted report" [ (3, [ (4, 9) ]); (1, [ (4, 9) ]) ]
    !(fx.reported);
  reply ~src:4 [ 4 ];
  check Alcotest.(list (triple int int int)) "the third adopts" [ (1, 4, 9) ]
    !(fx.adopted);
  check Alcotest.(list (list int)) "[p; p] is one witness" [ [ 1; 3; 4 ] ]
    !(fx.witnesses);
  reply ~src:5 [ 9 ];
  contract_reply fx ~src:4 ~instance:3 ~round:4 ~max_seen:6 [];
  contract_reply fx ~src:7 ~instance:1 ~round:4 ~max_seen:6 [];
  check Alcotest.int "bad certifier, instance or sender: no answer" 3
    (List.length !(fx.answered));
  (* Only the requested instance's rounds within the window of the
     requested round reach the instance. *)
  contract_reply fx ~src:2 ~instance:1 ~round:4 ~max_seen:6
    [
      { (contract_entry 9) with Msg.ce_instance = 2 };
      { (contract_entry 9) with Msg.ce_round = 4 + Rcc_core.Contract.window };
      { (contract_entry 9) with Msg.ce_round = 5 };
    ];
  check
    Alcotest.(pair int (list (pair int int)))
    "other instances and rounds past the window are not reported"
    (2, [ (5, 9) ])
    (List.hd !(fx.reported))

(* A forger's null batches disagree with the honest window: the reply is
   an answer, nothing of it is adopted, and the trace reports each
   disputed entry. *)
let test_contract_reply_disputed_traced () =
  let fx = make () in
  let tracer = Rcc_trace.Recorder.create () in
  Engine.set_tracer fx.engine tracer;
  let reply ~src entries =
    contract_reply fx ~src ~instance:1 ~round:4 ~max_seen:5 entries
  in
  let honest r = { (contract_entry 9) with Msg.ce_round = r } in
  let forged r =
    { (honest r) with Msg.ce_batch = Batch.null ~round:r;
      ce_cert_replicas = [ 0; 1; 2; 4; 5; 6 ] }
  in
  reply ~src:3 [ forged 4; forged 5 ];
  reply ~src:4 [ honest 4; honest 5 ];
  reply ~src:5 [ honest 4; honest 5 ];
  reply ~src:6 [ honest 4; honest 5 ];
  check Alcotest.(list (pair int int)) "honest window adopted" [ (4, 9); (5, 9) ]
    (List.rev_map (fun (_, r, id) -> (r, id)) !(fx.adopted));
  let adopted =
    List.filter_map
      (fun (e : Rcc_trace.Event.t) ->
        match e.Rcc_trace.Event.payload with
        | Rcc_trace.Event.Contract_adopted { entries; disputed; _ } ->
            Some (entries, disputed)
        | _ -> None)
      (Rcc_trace.Recorder.to_list tracer)
  in
  check Alcotest.(list (pair int int)) "(adopted, disputed) per traced reply"
    [ (0, 2); (0, 2); (2, 2) ] adopted

let test_contract_request_out_of_range () =
  let fx = make () in
  fill_round fx ~z:3 ~round:0 ~except:1;
  List.iter (fun src -> blame fx ~src ~instance:1 ~blamed:1 ~round:0) [ 3; 4; 5 ];
  fx.broadcasts := [];
  (* Instance 1 moved to view 1, so an in-range request also ships a
     View_sync: an out-of-range one must send nothing at all. *)
  contract_request fx ~src:5 ~round:0 ~instance:3;
  contract_request fx ~src:5 ~round:0 ~instance:(-1);
  check Alcotest.int "nothing sent" 0 (List.length !(fx.broadcasts));
  contract_request fx ~src:5 ~round:0 ~instance:2;
  check
    Alcotest.(list (list (pair int int)))
    "in range: contract" [ [ (2, 0) ] ] (contract_replies fx);
  check Alcotest.bool "in range: view sync" true
    (List.exists
       (function Msg.View_sync { instance = 1; _ } -> true | _ -> false)
       !(fx.broadcasts));
  (* A round below 0 names nothing: the window is empty. *)
  fx.broadcasts := [];
  contract_request fx ~src:5 ~round:(-5) ~instance:0;
  check
    Alcotest.(list (list (pair int int)))
    "negative round: empty window" [ [] ] (contract_replies fx)

let test_dark_victim_requests_each_missing_instance () =
  (* Replica 3 is kept dark by the primaries of instances 0 and 1. Its
     execution stalls on both, so its liveness monitor must ask for both
     instances' rounds, and for no other instance. *)
  let module Config = Rcc_runtime.Config in
  let module Cluster = Rcc_runtime.Cluster in
  let cfg =
    Config.make ~protocol:Config.MultiP ~n:4 ~batch_size:10 ~clients:40
      ~records:5_000 ~duration:(Engine.of_seconds 1.0)
      ~warmup:(Engine.of_seconds 0.25) ~replica_timeout:(Engine.ms 150) ()
  in
  let cluster = Cluster.build cfg in
  List.iter
    (fun r ->
      Rcc_replica.Byz.set (Cluster.byz_spec cluster r)
        (Rcc_replica.Byz.dark_primary ~victims:[ 3 ] ()))
    [ 0; 1 ];
  let requested = ref [] in
  ignore
    (Rcc_sim.Net.add_drop_rule (Cluster.net cluster) (fun ~src ~dst:_ msg ->
         (match msg with
         | Msg.Contract_request { instance; _ } when src = 3 ->
             requested := instance :: !requested
         | _ -> ());
         false));
  ignore (Cluster.run cluster);
  check Alcotest.(list int) "both dark instances requested" [ 0; 1 ]
    (List.sort_uniq compare !requested)

(* --- certificate-backed view sync --------------------------------------- *)

let test_view_sync_certified_adoption () =
  let fx = make () in
  let cert = cert_for fx ~instance:1 ~view:1 ~deposed:1 ~accusers:[ 3; 4; 5 ] in
  (* The sender lies about both the primary and kmal; neither is trusted —
     the rotation recomputes them from the certified view. *)
  view_sync fx.coordinator ~instance:1 ~view:1 ~primary:6
    ~kmal:[ 6 ] ~cert;
  check Alcotest.int "view adopted" 1 (Coordinator.view_of fx.coordinator 1);
  check Alcotest.int "primary from rotation, not sender" 4
    (Coordinator.primary_of fx.coordinator 1);
  check Alcotest.(list int) "kmal from rotation, not sender" [ 1 ]
    (Coordinator.known_malicious fx.coordinator);
  check Alcotest.int "skipped step counted" 1
    (Coordinator.replacements fx.coordinator)

let test_view_sync_rejects_forged_cert () =
  let fx = make () in
  let reject label cert =
    view_sync fx.coordinator ~instance:1 ~view:1 ~primary:4
      ~kmal:[] ~cert;
    check Alcotest.int (label ^ ": view unmoved") 0
      (Coordinator.view_of fx.coordinator 1);
    check Alcotest.int (label ^ ": primary unmoved") 1
      (Coordinator.primary_of fx.coordinator 1);
    check Alcotest.int (label ^ ": no replacement") 0
      (Coordinator.replacements fx.coordinator)
  in
  reject "empty" [];
  (* The forged-view attack: votes signed with replica 6's own key but
     attributed to accusers 3, 4, 5 — verification under the claimed
     accusers' keys must fail. *)
  reject "forged signer"
    (List.map
       (fun src ->
         {
           Msg.bv_accuser = src;
           bv_round = 0;
           bv_sig =
             Coordinator.sign_blame fx.kc ~signer:6 ~instance:1 ~view:0
               ~blamed:1 ~round:0;
         })
       [ 3; 4; 5 ]);
  (* f+1 valid votes from the SAME accuser are one accusation, not a
     quorum. *)
  reject "duplicate accuser"
    (cert_for fx ~instance:1 ~view:1 ~deposed:1 ~accusers:[ 3; 3; 3 ]);
  (* A certificate binds its view step: votes for 0 -> 1 cannot be
     replayed as evidence for 1 -> 2. *)
  view_sync fx.coordinator ~instance:1 ~view:2 ~primary:1
    ~kmal:[]
    ~cert:(cert_for fx ~instance:1 ~view:1 ~deposed:1 ~accusers:[ 3; 4; 5 ]);
  check Alcotest.int "replayed cert rejected" 0
    (Coordinator.view_of fx.coordinator 1)

let test_view_sync_multi_step () =
  let fx = make () in
  (* Jump 0 -> 2 on the strength of the FINAL step's certificate alone: at
     least one honest replica stood in that view-1 blame quorum, and
     honest replicas only reach view 1 through a certified step. *)
  let cert = cert_for fx ~instance:1 ~view:2 ~deposed:4 ~accusers:[ 2; 5; 6 ] in
  view_sync fx.coordinator ~instance:1 ~view:2 ~primary:0
    ~kmal:[] ~cert;
  check Alcotest.int "view jumped to 2" 2 (Coordinator.view_of fx.coordinator 1);
  (* Instance 1's pool {1, 4} wraps: view 2 re-seats replica 1. *)
  check Alcotest.int "primary recomputed across the wrap" 1
    (Coordinator.primary_of fx.coordinator 1);
  check Alcotest.(list int) "skipped primaries marked malicious" [ 1; 4 ]
    (Coordinator.known_malicious fx.coordinator);
  check Alcotest.int "both steps counted" 2
    (Coordinator.replacements fx.coordinator)

let test_view_sync_cancels_pending () =
  let fx = make () in
  (* Quorum against instance 1 parks behind the §3.4.2 ordering condition:
     no other instance has replicated round 0 yet. *)
  List.iter (fun src -> blame fx ~src ~instance:1 ~blamed:1 ~round:0) [ 3; 4; 5 ];
  check Alcotest.int "parked, not replaced" 0
    (Coordinator.replacements fx.coordinator);
  let cert = cert_for fx ~instance:1 ~view:1 ~deposed:1 ~accusers:[ 3; 4; 5 ] in
  view_sync fx.coordinator ~instance:1 ~view:1 ~primary:4
    ~kmal:[] ~cert;
  check Alcotest.int "adopted via sync" 1 (Coordinator.replacements fx.coordinator);
  (* The parked entry must be gone: once instances 0 and 2 accept round 0
     the old entry's §3.4.2 ordering condition becomes satisfiable, and
     the next pass over the queue must not drag instance 1 through a
     second, phantom view step. *)
  fill_round fx ~z:3 ~round:0 ~except:1;
  List.iter (fun src -> blame fx ~src ~instance:2 ~blamed:2 ~round:0) [ 3; 4; 5 ];
  check Alcotest.int "no phantom second step" 1
    (Coordinator.view_of fx.coordinator 1);
  check Alcotest.int "instance 1 keeps primary 4" 4
    (Coordinator.primary_of fx.coordinator 1);
  check Alcotest.int "no phantom replacement counted" 1
    (Coordinator.replacements fx.coordinator)

let test_view_sync_converges_replicas () =
  (* Replica A performs a real replacement from a blame quorum; replica B
     missed it and adopts from A's gossip. Their coordinator state —
     primaries, views, replacement counts — must converge exactly, which
     is what the chaos invariant checks cluster-wide. *)
  let a = make () in
  fill_round a ~z:3 ~round:0 ~except:1;
  List.iter (fun src -> blame a ~src ~instance:1 ~blamed:1 ~round:0) [ 3; 4; 5 ];
  let b = make () in
  view_sync b.coordinator ~instance:1
    ~view:(Coordinator.view_of a.coordinator 1)
    ~primary:(Coordinator.primary_of a.coordinator 1)
    ~kmal:(Coordinator.known_malicious a.coordinator)
    ~cert:(Coordinator.cert_of a.coordinator 1);
  check
    Alcotest.(list int)
    "primaries converged"
    (Coordinator.primaries a.coordinator)
    (Coordinator.primaries b.coordinator);
  check Alcotest.int "views converged"
    (Coordinator.view_of a.coordinator 1)
    (Coordinator.view_of b.coordinator 1);
  check Alcotest.int "replacements converged"
    (Coordinator.replacements a.coordinator)
    (Coordinator.replacements b.coordinator)

(* --- view-shift collision regression ------------------------------------ *)

let test_view_shift_distinct_primaries () =
  (* n=4, z=2, f=1. Two unified replacements of instance 0 put {0, 2} into
     kmal; the subsequent view shift (base 2) must not seat replica 3 as
     the primary of BOTH instances (the kmal-skip collision). *)
  let fx = make ~n:4 ~z:2 ~recovery:Coordinator.View_shift () in
  fill_round fx ~z:2 ~round:0 ~except:0;
  List.iter (fun src -> blame fx ~src ~instance:0 ~blamed:0 ~round:0) [ 1; 3 ];
  check Alcotest.int "first replacement" 2 (Coordinator.primary_of fx.coordinator 0);
  List.iter (fun src -> blame fx ~src ~instance:0 ~blamed:2 ~round:0) [ 1; 3 ];
  check Alcotest.(list int) "kmal primed" [ 0; 2 ]
    (Coordinator.known_malicious fx.coordinator);
  (* Spread blames: two accusers, no primary with two — collusion, answered
     by a whole-set view shift under this recovery mode. *)
  blame fx ~src:1 ~instance:0 ~blamed:(Coordinator.primary_of fx.coordinator 0)
    ~round:0;
  blame fx ~src:3 ~instance:1 ~blamed:1 ~round:0;
  Engine.run fx.engine ~until:(Engine.ms 50);
  let ps = Coordinator.primaries fx.coordinator in
  check Alcotest.int "shift happened" 2 (List.length ps);
  check Alcotest.int "primaries pairwise distinct" 2
    (List.length (List.sort_uniq compare ps))

(* --- stale-accuser pruning ----------------------------------------------- *)

let test_stale_accusers_expire_with_window () =
  let fx = make ~collusion_wait:(Engine.ms 10) () in
  fill_round fx ~z:3 ~round:0 ~except:(-1);
  Engine.run fx.engine ~until:(Engine.ms 5);
  (* Two replicas catching up after a crash blame round 0 — already
     executed here, so the accusations are stale. *)
  blame fx ~src:3 ~instance:1 ~blamed:1 ~round:0;
  blame fx ~src:4 ~instance:2 ~blamed:2 ~round:0;
  (* Execution keeps advancing and the collusion window they opened
     closes inconclusive: the stale marks must expire with it rather
     than linger forever. *)
  fill_round fx ~z:3 ~round:1 ~except:(-1);
  Engine.run fx.engine ~until:(Engine.ms 30);
  (* A single fresh accusation in a much later window must not combine
     with the long-gone stale pair into a phantom f+1 collusion alarm. *)
  blame fx ~src:5 ~instance:0 ~blamed:0 ~round:2;
  Engine.run fx.engine ~until:(Engine.ms 100);
  check Alcotest.int "no phantom collusion" 0
    (Rcc_replica.Metrics.collusions_detected fx.metrics)

(* --- round history vs the per-round ring it replaced --------------------- *)

module Round_history = Rcc_replica.Round_history
module Acceptance = Rcc_replica.Acceptance

(* The history as it was: one boxed acceptance array per round, in a
   ring of [max 16 capacity] rounds preallocated up front. *)
module Ring_model = struct
  type t = (int * Acceptance.t array) option array

  let create ~capacity : t = Array.make (max 16 capacity) None
  let store (t : t) ~round accs = t.(round mod Array.length t) <- Some (round, accs)

  let find (t : t) ~round ~instance =
    match t.(round mod Array.length t) with
    | Some (r, accs) when r = round ->
        Array.find_opt (fun (a : Acceptance.t) -> a.instance = instance) accs
    | Some _ | None -> None

  (* Drops rounds [>= frontier]; returns what [find] served of them. *)
  let rollback (t : t) ~frontier ~z =
    let dropped = ref [] in
    Array.iteri
      (fun i slot ->
        match slot with
        | Some (r, _) when r >= frontier ->
            for instance = 0 to z - 1 do
              Option.iter
                (fun a -> dropped := a :: !dropped)
                (find t ~round:r ~instance)
            done;
            t.(i) <- None
        | Some _ | None -> ())
      t;
    !dropped
end

let batch_pool = Array.init 32 (fun k -> Batch.null ~round:k)
let digest_pool = [| ""; "h0"; "h1" |]

(* (instance, batch, cert, speculative, history digest) *)
type history_acc = int * int * int list * bool * int

type history_op =
  | Store_next of history_acc list
  | Store_at of int * history_acc list
  | Find of int * int
  | Rollback of int

let gen_history_case =
  let open QCheck2.Gen in
  let* z = int_range 1 6 in
  let* capacity = oneofl [ 1; 16; 20; 24; 48; 64; 100 ] in
  let* n = oneofl [ 4; 16; 64 ] in
  (* Half the cases never speculate, as MultiP and MultiC never do. *)
  let* speculating = bool in
  let span = 3 * max 16 capacity in
  let member = int_range 0 (n - 1) in
  let cert =
    oneof
      [
        (* Quorum.to_list: ascending, distinct *)
        map (List.sort_uniq compare) (list_size (int_range 0 n) member);
        (* Zyzzyva's [primary; self]: unsorted when primary > self *)
        map2 (fun p s -> [ p; s ]) member member;
        (* a primary's own [p; p] *)
        map (fun p -> [ p; p ]) member;
        list_size (int_range 0 6) member;
      ]
  in
  let spec =
    if speculating then
      pair (frequency [ (1, return false); (3, return true) ])
        (int_range 0 (Array.length digest_pool - 1))
    else return (false, 0)
  in
  let acc =
    map2
      (fun (x, b, c) (sp, h) -> (x, b, c, sp, h))
      (triple (int_range 0 (z - 1)) (int_range 0 (Array.length batch_pool - 1)) cert)
      spec
  in
  let accs = list_size (int_range 0 (z + 2)) acc in
  let op =
    frequency
      [
        (6, map (fun a -> Store_next a) accs);
        (2, map2 (fun r a -> Store_at (r, a)) (int_range 0 (span - 1)) accs);
        (3, map2 (fun r x -> Find (r, x)) (int_range 0 (span - 1)) (int_range 0 (z - 1)));
        (1, map (fun f -> Rollback f) (int_range (-2) (span - 1)));
      ]
  in
  let+ ops = list_size (int_range 0 150) op in
  (z, capacity, n, ops)

let print_history_case (z, capacity, n, ops) =
  let accs l =
    String.concat "; "
      (List.map
         (fun (x, b, c, sp, h) ->
           Printf.sprintf "(%d, b%d, [%s], %b, %S)" x b
             (String.concat ";" (List.map string_of_int c))
             sp digest_pool.(h))
         l)
  in
  Printf.sprintf "z=%d capacity=%d n=%d\n%s" z capacity n
    (String.concat "\n"
       (List.map
          (function
            | Store_next a -> "store_next " ^ accs a
            | Store_at (r, a) -> Printf.sprintf "store %d %s" r (accs a)
            | Find (r, x) -> Printf.sprintf "find %d %d" r x
            | Rollback f -> Printf.sprintf "rollback %d" f)
          ops))

let same_acceptance (a : Acceptance.t) (b : Acceptance.t) =
  a.instance = b.instance && a.round = b.round && a.batch == b.batch
  && a.cert = b.cert && a.speculative = b.speculative && a.history = b.history

let same_found a b =
  match (a, b) with
  | None, None -> true
  | Some a, Some b -> same_acceptance a b
  | _ -> false

let by_cell (a : Acceptance.t) (b : Acceptance.t) =
  compare (a.round, a.instance) (b.round, b.instance)

let history_matches_ring =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:300 ~print:print_history_case
       ~name:"history == ring model"
       gen_history_case
       (fun (z, capacity, _n, ops) ->
         let h = Round_history.create ~z ~capacity in
         let m = Ring_model.create ~capacity in
         let cap = max 16 capacity in
         let cursor = ref 0 and top = ref 0 in
         let slots = ref (Round_history.slots h) in
         let store round spec =
           let accs =
             Array.of_list
               (List.map
                  (fun (instance, b, cert, speculative, d) ->
                    {
                      Acceptance.instance;
                      round;
                      batch = batch_pool.(b);
                      cert;
                      speculative;
                      history = digest_pool.(d);
                    })
                  spec)
           in
           (* No floor: the ring evicts exactly as the model does. *)
           Round_history.store h ~round ~floor:max_int accs;
           Ring_model.store m ~round accs;
           top := max !top round
         in
         let agree round instance =
           same_found
             (Round_history.find h ~round ~instance)
             (Ring_model.find m ~round ~instance)
           || QCheck2.Test.fail_reportf "find round %d instance %d differs" round
                instance
         in
         List.iter
           (fun op ->
             (match op with
             | Store_next a ->
                 store !cursor a;
                 incr cursor
             | Store_at (r, a) -> store r a
             | Find (r, x) -> ignore (agree r x)
             | Rollback frontier ->
                 let got = List.sort by_cell (Round_history.rollback h ~frontier) in
                 let want = List.sort by_cell (Ring_model.rollback m ~frontier ~z) in
                 if
                   not
                     (List.length got = List.length want
                     && List.for_all2 same_acceptance got want)
                 then
                   QCheck2.Test.fail_reportf
                     "rollback %d: %d acceptances returned, model %d" frontier
                     (List.length got) (List.length want);
                 cursor := max 0 (min !cursor frontier));
             let s = Round_history.slots h in
             if s < !slots || s > cap || cap mod s <> 0 then
               QCheck2.Test.fail_reportf "slots %d (was %d, capacity %d)" s !slots cap;
             slots := s)
           ops;
         for round = 0 to !top + 1 do
           for instance = 0 to z - 1 do
             ignore (agree round instance)
           done
         done;
         true))

let test_history_certs_exact () =
  let h = Round_history.create ~z:5 ~capacity:16_384 in
  let certs =
    [| [ 0; 2; 4; 5; 7; 8; 9; 11; 12; 13; 15 ]; [ 5; 1 ]; [ 3; 3 ];
       [ 0; 31; 61; 62; 63 ]; [] |]
  in
  for round = 0 to 511 do
    Round_history.store h ~round ~floor:max_int
      (Array.mapi
         (fun instance cert ->
           {
             Acceptance.instance;
             round;
             batch = batch_pool.(instance);
             cert;
             speculative = true;
             history = "";
           })
         certs)
  done;
  check Alcotest.int "grew to the rounds held, not the capacity" 512
    (Round_history.slots h);
  Array.iteri
    (fun instance cert ->
      match Round_history.find h ~round:300 ~instance with
      | Some a ->
          check Alcotest.bool "batch pointer" true (a.batch == batch_pool.(instance));
          check Alcotest.(list int) "cert read back exactly" cert a.cert
      | None -> Alcotest.fail "round 300 not retained")
    certs;
  ignore (Round_history.rollback h ~frontier:300);
  check Alcotest.bool "rolled back" true
    (Round_history.find h ~round:300 ~instance:0 = None
    && Round_history.find h ~round:299 ~instance:0 <> None)

(* The ring never evicts a round at or above the floor it is given (the
   execute stage passes its cross-instance stable floor): past its
   capacity it grows instead, so a rollback takes back every round a
   rollback may unwind. Below the floor the capacity still applies. *)
let test_rollback_keeps_floor () =
  let store h ~floor round =
    Round_history.store h ~round ~floor
      [| { (acceptance ~instance:0 ~round 0) with batch = batch_pool.(round mod 32) } |]
  in
  let h = Round_history.create ~z:1 ~capacity:16 in
  for round = 0 to 99 do
    store h ~floor:10 round
  done;
  check Alcotest.(list int) "every round from the floor up taken back"
    (List.init 90 (fun r -> r + 10))
    (List.map
       (fun (a : Acceptance.t) -> a.round)
       (List.sort by_cell (Round_history.rollback h ~frontier:10)));
  let h = Round_history.create ~z:1 ~capacity:16 in
  for round = 0 to 99 do
    store h ~floor:max_int round
  done;
  check Alcotest.int "below the floor: the newest capacity rounds" 16
    (List.length (Round_history.rollback h ~frontier:10));
  (* The execute stage itself: more rounds than its ring's capacity
     executed with no stable checkpoint, then instance 1 rolls back from
     round 50; every later round is re-buffered and re-executes once
     instance 1 re-delivers it. *)
  let fx = make () in
  let rounds = Exec.history_capacity + 100 in
  let batches = Array.init rounds (fun round -> Batch.null ~round) in
  let null_acc ~instance ~round batch =
    { (acceptance ~instance ~round 0) with batch }
  in
  for round = 0 to rounds - 1 do
    for instance = 0 to 2 do
      Exec.notify fx.exec (null_acc ~instance ~round batches.(round))
    done
  done;
  Engine.run fx.engine ~until:(Engine.of_seconds 100.);
  check Alcotest.int "all executed" rounds (Exec.executed_rounds fx.exec);
  Exec.rollback_to fx.exec ~frontier:50 ~instance:1;
  check Alcotest.int "resumes at the frontier" 50 (Exec.next_round fx.exec);
  let rebuffered = ref 0 in
  for round = 50 to rounds - 1 do
    match Exec.accepted fx.exec ~round ~instance:0 with
    | Some a when a.batch == batches.(round) -> incr rebuffered
    | Some _ | None -> ()
  done;
  check Alcotest.int "every unwound round re-buffered" (rounds - 50) !rebuffered;
  for round = 50 to rounds - 1 do
    Exec.notify fx.exec (null_acc ~instance:1 ~round (Batch.null ~round))
  done;
  Engine.run fx.engine ~until:(Engine.of_seconds 200.);
  check Alcotest.int "re-executed" rounds (Exec.executed_rounds fx.exec);
  check Alcotest.bool "round 60 as re-delivered" true
    (match Exec.accepted fx.exec ~round:60 ~instance:1 with
    | Some a -> a.batch != batches.(60)
    | None -> false)

let suite =
  ( "coordinator",
    [
      Alcotest.test_case "unified replacement" `Quick test_unified_replacement;
      Alcotest.test_case "own accusations signed and traced once" `Quick
        test_own_accusations;
      Alcotest.test_case "rotates within residue class" `Quick
        test_replacement_rotates_within_residue_class;
      Alcotest.test_case "stale blames ignored" `Quick test_stale_blames_ignored;
      Alcotest.test_case "Lemma 5.1 order independence" `Quick
        test_lemma_5_1_order_independence;
      Alcotest.test_case "collusion detection" `Quick
        test_collusion_detected_on_spread_blames;
      Alcotest.test_case "collusion window evaluates once" `Quick
        test_collusion_window_evaluates_once;
      Alcotest.test_case "no collusion below f+1" `Quick test_no_collusion_below_threshold;
      Alcotest.test_case "collusion re-detection" `Quick
        test_collusion_redetects_after_recovery;
      Alcotest.test_case "view-shift recovery" `Quick test_view_shift_recovery;
      Alcotest.test_case "pessimistic contracts" `Quick
        test_pessimistic_contract_every_round;
      Alcotest.test_case "contract adoption" `Quick test_on_contract_adopts;
      Alcotest.test_case "thin proof rejected" `Quick test_on_contract_rejects_thin_proof;
      Alcotest.test_case "contract request from history" `Quick
        test_contract_request_answered_from_history;
      Alcotest.test_case "contract request window stops at hole" `Quick
        test_contract_request_window_stops_at_hole;
      Alcotest.test_case "contract request: empty window answered" `Quick
        test_contract_request_empty_window_answered;
      Alcotest.test_case "contract reply: adopted, then answered" `Quick
        test_contract_reply_adopted_then_answered;
      Alcotest.test_case "contract reply: disputes traced" `Quick
        test_contract_reply_disputed_traced;
      Alcotest.test_case "contract request out of range" `Quick
        test_contract_request_out_of_range;
      Alcotest.test_case "dark victim requests each missing instance" `Slow
        test_dark_victim_requests_each_missing_instance;
      Alcotest.test_case "view-sync certified adoption" `Quick
        test_view_sync_certified_adoption;
      Alcotest.test_case "view-sync rejects forged certs" `Quick
        test_view_sync_rejects_forged_cert;
      Alcotest.test_case "view-sync multi-step jump" `Quick test_view_sync_multi_step;
      Alcotest.test_case "view-sync cancels pending replacement" `Quick
        test_view_sync_cancels_pending;
      Alcotest.test_case "view-sync converges replicas" `Quick
        test_view_sync_converges_replicas;
      Alcotest.test_case "view-shift primaries distinct" `Quick
        test_view_shift_distinct_primaries;
      Alcotest.test_case "stale accusers expire with window" `Quick
        test_stale_accusers_expire_with_window;
      history_matches_ring;
      Alcotest.test_case "history certs read back exactly" `Quick
        test_history_certs_exact;
      Alcotest.test_case "rollback re-buffers from the floor" `Quick
        test_rollback_keeps_floor;
    ] )
