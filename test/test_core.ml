(* RCC core tests: the §3.4.1 permutation bijection, client mapping,
   recovery contracts. *)

module Permutation = Rcc_core.Permutation
module Client_map = Rcc_core.Client_map
module Contract = Rcc_core.Contract
module Msg = Rcc_messages.Msg

let check = Alcotest.check
let qtest ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* --- permutation --------------------------------------------------------- *)

let test_factorial () =
  check Alcotest.int "0!" 1 (Permutation.factorial 0);
  check Alcotest.int "1!" 1 (Permutation.factorial 1);
  check Alcotest.int "5!" 120 (Permutation.factorial 5);
  check Alcotest.int "11!" 39_916_800 (Permutation.factorial 11);
  Alcotest.check_raises "21! overflows"
    (Invalid_argument "Permutation.factorial: out of range") (fun () ->
      ignore (Permutation.factorial 21))

let is_permutation a =
  let n = Array.length a in
  let seen = Array.make n false in
  Array.for_all
    (fun x ->
      x >= 0 && x < n
      &&
      if seen.(x) then false
      else begin
        seen.(x) <- true;
        true
      end)
    a

let test_of_index_bijective_len4 () =
  (* All 24 indices map to distinct valid permutations of 4 elements. *)
  let seen = Hashtbl.create 24 in
  for h = 0 to 23 do
    let p = Permutation.of_index h ~len:4 in
    check Alcotest.bool "valid permutation" true (is_permutation p);
    let key = String.concat "," (Array.to_list (Array.map string_of_int p)) in
    check Alcotest.bool (Printf.sprintf "h=%d fresh" h) false (Hashtbl.mem seen key);
    Hashtbl.replace seen key ()
  done;
  check Alcotest.int "24 distinct permutations" 24 (Hashtbl.length seen)

let test_identity_and_base_cases () =
  check Alcotest.(array int) "len 1" [| 0 |] (Permutation.of_index 0 ~len:1);
  check Alcotest.bool "h=0 is some fixed order" true
    (is_permutation (Permutation.of_index 0 ~len:6))

let index_roundtrip =
  qtest "permutation: index_of inverts of_index"
    QCheck2.Gen.(pair (int_range 1 7) small_int)
    (fun (len, raw) ->
      let h = raw mod Permutation.factorial len in
      Permutation.index_of (Permutation.of_index h ~len) = h)

let test_of_index_validation () =
  Alcotest.check_raises "h too large"
    (Invalid_argument "Permutation.of_index: bad index") (fun () ->
      ignore (Permutation.of_index 24 ~len:4));
  Alcotest.check_raises "empty" (Invalid_argument "Permutation.of_index: empty sequence")
    (fun () -> ignore (Permutation.of_index 0 ~len:0))

let seed_in_range =
  qtest "permutation: digest seed within len!"
    QCheck2.Gen.(pair (int_range 1 10) string)
    (fun (len, s) ->
      let digest = Rcc_crypto.Sha256.digest s in
      let h = Permutation.seed_of_digest digest ~len in
      h >= 0 && h < Permutation.factorial len)

let test_order_of_round_deterministic () =
  let digests = [ "aa"; "bb"; "cc"; "dd" ] in
  let a = Permutation.order_of_round ~digests ~len:4 in
  let b = Permutation.order_of_round ~digests ~len:4 in
  check Alcotest.(array int) "same inputs, same order" a b;
  check Alcotest.bool "valid" true (is_permutation a);
  (* Different round content gives (almost surely) a different order for
     some sequence; check over several variations to avoid flakiness. *)
  let variations =
    List.init 50 (fun i -> Permutation.order_of_round ~digests:[ string_of_int i ] ~len:4)
  in
  let distinct =
    List.sort_uniq compare (List.map (fun p -> Array.to_list p) variations)
  in
  check Alcotest.bool "orders vary with content" true (List.length distinct > 3)

let test_order_distribution_covers_all () =
  (* §3.4.1's fairness claim: over many rounds, the digest-seeded order
     visits every permutation (no instance has reliable influence). *)
  let seen = Hashtbl.create 6 in
  for i = 0 to 199 do
    let order =
      Permutation.order_of_round ~digests:[ Printf.sprintf "round-%d" i ] ~len:3
    in
    Hashtbl.replace seen (Array.to_list order) ()
  done;
  check Alcotest.int "all 3! orders appear" 6 (Hashtbl.length seen)

(* --- client map ------------------------------------------------------------ *)

let test_client_map_home () =
  let m = Client_map.create ~z:4 ~cap_per_instance:2 in
  check Alcotest.int "home" 3 (Client_map.home_instance m 7);
  check Alcotest.int "current = home initially" 3 (Client_map.current_instance m 7)

let test_client_map_change_and_cap () =
  let m = Client_map.create ~z:3 ~cap_per_instance:1 in
  (* client 0's home is 0; move to 1 *)
  check Alcotest.bool "change ok" true
    (Result.is_ok (Client_map.request_change m ~client:0 ~target:1));
  check Alcotest.int "moved" 1 (Client_map.current_instance m 0);
  check Alcotest.int "population" 1 (Client_map.population m 1);
  (* instance 1 is at capacity for adopted clients *)
  check Alcotest.bool "cap enforced" true
    (match Client_map.request_change m ~client:3 ~target:1 with
    | Error `At_capacity -> true
    | Ok () | Error `Same_instance -> false);
  (* same-instance requests are rejected *)
  check Alcotest.bool "same instance" true
    (match Client_map.request_change m ~client:0 ~target:1 with
    | Error `Same_instance -> true
    | Ok () | Error `At_capacity -> false);
  (* moving home again frees the slot *)
  check Alcotest.bool "move home" true
    (Result.is_ok (Client_map.request_change m ~client:0 ~target:0));
  check Alcotest.int "slot released" 0 (Client_map.population m 1)

(* Invariant under random instance-change traffic: adopted populations
   equal the number of clients currently away from home, and never exceed
   the cap. *)
let client_map_population_invariant =
  qtest ~count:200 "client map: population invariant under random changes"
    QCheck2.Gen.(
      pair (int_range 2 5)
        (list_size (int_range 0 40) (pair (int_range 0 19) (int_range 0 4))))
    (fun (z, ops) ->
      let cap = 3 in
      let m = Client_map.create ~z ~cap_per_instance:cap in
      List.iter
        (fun (client, target) ->
          if target < z then
            ignore (Client_map.request_change m ~client ~target))
        ops;
      let adopted = ref 0 in
      for c = 0 to 19 do
        if Client_map.current_instance m c <> Client_map.home_instance m c then
          incr adopted
      done;
      let total_pop = ref 0 in
      let capped = ref true in
      for x = 0 to z - 1 do
        let p = Client_map.population m x in
        total_pop := !total_pop + p;
        if p > cap then capped := false
      done;
      !adopted = !total_pop && !capped)

(* --- contracts --------------------------------------------------------------- *)

let rng = Rcc_common.Rng.create 23
let secret, _ = Rcc_crypto.Signature.keygen rng

let batch id =
  Rcc_messages.Batch.create ~id ~client:0
    ~txns:[| Rcc_workload.Txn.{ key = id; op = Write id } |]
    ~secret

let test_contract_build_and_validate () =
  let accepted x = if x = 1 then None else Some (batch x, [ 0; 1; 2 ]) in
  let contract = Contract.build ~round:5 ~accepted ~z:3 in
  check Alcotest.int "entries for accepted instances" 2
    (List.length contract.Contract.entries);
  check Alcotest.bool "validates" true
    (Result.is_ok (Contract.validate contract ~n:4));
  check Alcotest.bool "out-of-range certifier rejected" true
    (Result.is_error (Contract.validate contract ~n:2))

let test_contract_msg_roundtrip () =
  let contract =
    Contract.build ~round:9 ~accepted:(fun x -> Some (batch x, [ 0; 1 ])) ~z:2
  in
  match Contract.of_msg (Contract.to_msg contract) with
  | Some c ->
      check Alcotest.int "round survives" 9 c.Contract.round;
      check Alcotest.int "entries survive" 2 (List.length c.Contract.entries)
  | None -> Alcotest.fail "roundtrip failed"

let test_contract_of_msg_other () =
  check Alcotest.bool "non-contract message" true
    (Option.is_none
       (Contract.of_msg (Msg.Prepare { instance = 0; view = 0; seq = 0; digest = "" })))

let entry ?(instance = 0) ?(cert = [ 1; 2; 3 ]) ~round id =
  { Msg.ce_instance = instance; ce_round = round; ce_batch = batch id;
    ce_cert_replicas = cert }

(* n = 4, f = 1: two matching responders other than replica 0 adopt. *)
let tally () = Contract.tally ~n:4 ~f:1 ~z:2 ~self:0

let count t ~src ?(next = 0) entries =
  Contract.count t ~src ~next { Contract.round = 0; entries }

let witnesses (c : Contract.counted) =
  List.map
    (fun ((e : Msg.contract_entry), w) -> (e.Msg.ce_instance, e.Msg.ce_round, w))
    c.Contract.adopted

let adopted = Alcotest.(list (triple int int (list int)))

(* Certifier ids prove nothing a receiver can check: validation counts
   none, and a responder is one witness whatever it names, a Zyzzyva
   primary's own [p; p] as much as a full list. *)
let test_contract_duplicate_certifiers () =
  let contract cert =
    { Contract.round = 4; entries = [ entry ~cert ~round:4 0 ] }
  in
  check Alcotest.bool "[p; p] validates" true
    (Result.is_ok (Contract.validate (contract [ 2; 2 ]) ~n:4));
  let t = tally () in
  check adopted "one [p; p] responder: nothing" []
    (witnesses (Contract.count t ~src:2 ~next:0 (contract [ 2; 2 ])));
  check adopted "a second responder: adopted, two witnesses"
    [ (0, 4, [ 2; 3 ]) ]
    (witnesses (Contract.count t ~src:3 ~next:0 (contract [ 0; 1; 2; 3 ])))

let test_contract_round_mismatch () =
  let entry =
    { Msg.ce_instance = 0; ce_round = 3; ce_batch = batch 0; ce_cert_replicas = [ 0; 1 ] }
  in
  let contract = { Contract.round = 4; entries = [ entry ] } in
  check Alcotest.bool "round mismatch rejected" true
    (Result.is_error (Contract.validate contract ~n:4))

(* A responder counts once per (instance, round), however often it
   repeats itself; this replica's own report never counts. *)
let test_tally_repeated_responder () =
  let t = tally () in
  let e = [ entry ~round:3 7 ] in
  check adopted "first report" [] (witnesses (count t ~src:1 e));
  check adopted "same responder again" [] (witnesses (count t ~src:1 e));
  check adopted "own report" [] (witnesses (count t ~src:0 e));
  check adopted "out-of-range responder" [] (witnesses (count t ~src:4 e));
  check adopted "second responder" [ (0, 3, [ 1; 2 ]) ]
    (witnesses (count t ~src:2 e))

(* Responders that disagree adopt nothing, and each disagreement is
   counted; a responder's later report replaces its earlier one. *)
let test_tally_split_digests () =
  let t = tally () in
  let c1 = count t ~src:1 [ entry ~round:3 7; entry ~instance:1 ~round:3 9 ] in
  let c2 = count t ~src:2 [ entry ~round:3 8; entry ~instance:1 ~round:3 9 ] in
  let c3 = count t ~src:3 [ entry ~round:3 6 ] in
  check adopted "split round: only the matching instance"
    [ (1, 3, [ 1; 2 ]) ] (witnesses c2);
  check Alcotest.(list int) "disputed per reply" [ 0; 1; 1 ]
    (List.map (fun (c : Contract.counted) -> c.Contract.disputed) [ c1; c2; c3 ]);
  check adopted "three digests, one each" [] (witnesses c3);
  check adopted "responder 1 moves to responder 2's digest"
    [ (0, 3, [ 1; 2 ]) ] (witnesses (count t ~src:1 [ entry ~round:3 8 ]));
  check adopted "responder 1's old vote is gone" []
    (witnesses (count t ~src:3 [ entry ~round:3 7 ]))

(* Entries outside [next - window, next + window) are not counted, and
   a cell keeps one vote per responder: no flood grows the tally. *)
let test_tally_flood_bounded () =
  let t = tally () in
  let empty = Obj.reachable_words (Obj.repr t) in
  let far = List.init 64 (fun i -> entry ~round:(Contract.window + (i * 97)) i) in
  ignore (count t ~src:1 far);
  check adopted "far above: never adopted" [] (witnesses (count t ~src:2 far));
  let below = List.init 64 (fun i -> entry ~round:i i) in
  ignore (count t ~src:1 ~next:(Contract.window + 64) below);
  check adopted "far below: never adopted" []
    (witnesses (count t ~src:2 ~next:(Contract.window + 64) below));
  check Alcotest.int "nothing counted, nothing kept" empty
    (Obj.reachable_words (Obj.repr t));
  ignore (count t ~src:1 [ entry ~round:5 0 ]);
  let one = Obj.reachable_words (Obj.repr t) in
  for id = 1 to 200 do
    ignore (count t ~src:1 [ entry ~round:5 id ])
  done;
  check Alcotest.int "200 digests from one responder: one vote" one
    (Obj.reachable_words (Obj.repr t))

let suite =
  ( "core",
    [
      Alcotest.test_case "factorial" `Quick test_factorial;
      Alcotest.test_case "of_index bijective (len 4)" `Quick test_of_index_bijective_len4;
      Alcotest.test_case "base cases" `Quick test_identity_and_base_cases;
      index_roundtrip;
      Alcotest.test_case "of_index validation" `Quick test_of_index_validation;
      seed_in_range;
      Alcotest.test_case "order_of_round" `Quick test_order_of_round_deterministic;
      Alcotest.test_case "order distribution" `Quick test_order_distribution_covers_all;
      Alcotest.test_case "client map home" `Quick test_client_map_home;
      Alcotest.test_case "client map change/cap" `Quick test_client_map_change_and_cap;
      client_map_population_invariant;
      Alcotest.test_case "contract build/validate" `Quick test_contract_build_and_validate;
      Alcotest.test_case "contract msg roundtrip" `Quick test_contract_msg_roundtrip;
      Alcotest.test_case "contract of_msg other" `Quick test_contract_of_msg_other;
      Alcotest.test_case "contract round mismatch" `Quick test_contract_round_mismatch;
      Alcotest.test_case "contract duplicate certifiers" `Quick
        test_contract_duplicate_certifiers;
      Alcotest.test_case "tally: repeated responder" `Quick
        test_tally_repeated_responder;
      Alcotest.test_case "tally: split digests" `Quick test_tally_split_digests;
      Alcotest.test_case "tally: flood bounded" `Quick test_tally_flood_bounded;
    ] )
