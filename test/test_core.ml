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
    (Result.is_ok (Contract.validate contract ~n:4 ~min_cert:2));
  check Alcotest.bool "insufficient proof rejected" true
    (Result.is_error (Contract.validate contract ~n:4 ~min_cert:4));
  check Alcotest.bool "out-of-range certifier rejected" true
    (Result.is_error (Contract.validate contract ~n:2 ~min_cert:2))

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

(* A certifier named twice proves one replica: a Zyzzyva primary's own
   [p; p] accept does not meet MultiZ's min_cert = 2. *)
let test_contract_duplicate_certifiers () =
  let entry cert =
    { Msg.ce_instance = 0; ce_round = 4; ce_batch = batch 0; ce_cert_replicas = cert }
  in
  let valid cert =
    Result.is_ok
      (Contract.validate { Contract.round = 4; entries = [ entry cert ] } ~n:4
         ~min_cert:2)
  in
  check Alcotest.bool "one replica named twice rejected" false (valid [ 2; 2 ]);
  check Alcotest.bool "two replicas accepted" true (valid [ 2; 1 ]);
  check Alcotest.bool "duplicates beside enough distinct accepted" true
    (valid [ 1; 1; 3 ])

let test_contract_round_mismatch () =
  let entry =
    { Msg.ce_instance = 0; ce_round = 3; ce_batch = batch 0; ce_cert_replicas = [ 0; 1 ] }
  in
  let contract = { Contract.round = 4; entries = [ entry ] } in
  check Alcotest.bool "round mismatch rejected" true
    (Result.is_error (Contract.validate contract ~n:4 ~min_cert:1))

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
    ] )
