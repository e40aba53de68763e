(* Workload tests: Zipfian distribution, YCSB generator, transactions. *)

module Zipf = Rcc_workload.Zipf
module Ycsb = Rcc_workload.Ycsb
module Txn = Rcc_workload.Txn
module Kv = Rcc_storage.Kv_store

let check = Alcotest.check
let qtest ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let zipf_bounds =
  qtest "zipf: draws within [0, n)"
    QCheck2.Gen.(pair (int_range 1 10_000) small_int)
    (fun (n, seed) ->
      let z = Zipf.create ~n ~theta:0.9 in
      let rng = Rcc_common.Rng.create seed in
      let ok = ref true in
      for _ = 1 to 50 do
        let k = Zipf.next z rng in
        if k < 0 || k >= n then ok := false
      done;
      !ok)

let test_zipf_skew () =
  (* With theta = 0.9 the most popular key vastly exceeds uniform share. *)
  let n = 10_000 in
  let z = Zipf.create ~n ~theta:0.9 in
  let rng = Rcc_common.Rng.create 3 in
  let hits = Array.make n 0 in
  let draws = 100_000 in
  for _ = 1 to draws do
    let k = Zipf.next z rng in
    hits.(k) <- hits.(k) + 1
  done;
  let top = Array.fold_left max 0 hits in
  let uniform_share = draws / n in
  check Alcotest.bool "skewed head" true (top > 50 * uniform_share);
  (* And the tail is still populated: at least 10% of keys are touched. *)
  let touched = Array.fold_left (fun acc h -> if h > 0 then acc + 1 else acc) 0 hits in
  check Alcotest.bool "long tail exists" true (touched > n / 10)

let test_zipf_determinism () =
  let z = Zipf.create ~n:1000 ~theta:0.9 in
  let a = Rcc_common.Rng.create 5 and b = Rcc_common.Rng.create 5 in
  for _ = 1 to 100 do
    check Alcotest.int "same stream" (Zipf.next z a) (Zipf.next z b)
  done

let test_zipf_validation () =
  Alcotest.check_raises "bad n" (Invalid_argument "Zipf.create: n must be positive")
    (fun () -> ignore (Zipf.create ~n:0 ~theta:0.5));
  Alcotest.check_raises "bad theta" (Invalid_argument "Zipf.create: theta in [0,1)")
    (fun () -> ignore (Zipf.create ~n:10 ~theta:1.0))

let test_zipf_skew_monotone_in_theta () =
  let top_share theta =
    let n = 1000 in
    let z = Zipf.create ~n ~theta in
    let rng = Rcc_common.Rng.create 9 in
    let hits = Array.make n 0 in
    for _ = 1 to 20_000 do
      let k = Zipf.next z rng in
      hits.(k) <- hits.(k) + 1
    done;
    Array.fold_left max 0 hits
  in
  let low = top_share 0.01 and mid = top_share 0.5 and high = top_share 0.99 in
  check Alcotest.bool
    (Printf.sprintf "skew grows with theta (%d < %d < %d)" low mid high)
    true
    (low < mid && mid < high)

let test_ycsb_write_ratio () =
  let gen = Ycsb.create ~records:1000 ~write_ratio:0.9 ~theta:0.9 ~seed:7 () in
  let writes = ref 0 in
  let total = 10_000 in
  for _ = 1 to total do
    match (Ycsb.next_txn gen).Txn.op with
    | Txn.Write _ -> incr writes
    | Txn.Read -> ()
  done;
  let ratio = float_of_int !writes /. float_of_int total in
  check Alcotest.bool "~90% writes" true (ratio > 0.88 && ratio < 0.92)

let test_ycsb_batch_and_store () =
  let gen = Ycsb.create ~records:100 ~write_ratio:1.0 ~theta:0.5 ~seed:1 () in
  let batch = Ycsb.batch gen ~size:25 in
  check Alcotest.int "batch size" 25 (Array.length batch);
  let store = Kv.create () in
  Ycsb.init_store gen store;
  check Alcotest.int "store populated" 100 (Kv.size store);
  Array.iter (fun txn -> ignore (Txn.apply store txn)) batch;
  check Alcotest.int "writes applied" 25 (Kv.writes_performed store)

let test_txn_apply () =
  let store = Kv.create () in
  Kv.init_records store ~count:4;
  let w = Txn.{ key = 2; op = Write 55 } in
  check Alcotest.int "write returns value" 55 (Txn.apply store w);
  let r = Txn.{ key = 2; op = Read } in
  check Alcotest.int "read returns stored" 55 (Txn.apply store r);
  check Alcotest.int "read of missing key is 0" 0
    (Txn.apply store Txn.{ key = 77; op = Read })

let txn_encode_distinct =
  qtest "txn: encode is injective"
    QCheck2.Gen.(pair (pair small_int (option small_int)) (pair small_int (option small_int)))
    (fun ((k1, v1), (k2, v2)) ->
      let txn k v =
        Txn.{ key = k; op = (match v with Some v -> Write v | None -> Read) }
      in
      let a = txn k1 v1 and b = txn k2 v2 in
      Txn.equal a b || Txn.encode a <> Txn.encode b)

(* The normalizer as [Zipf.create] summed it before it was memoized. *)
let zeta_fresh n theta =
  let acc = ref 0.0 in
  for i = 1 to n do
    acc := !acc +. (1.0 /. (float_of_int i ** theta))
  done;
  !acc

let test_zipf_memo () =
  let same what want got =
    check Alcotest.int64 what (Int64.bits_of_float want) (Int64.bits_of_float got)
  in
  let a = Zipf.create ~n:5000 ~theta:0.9 in
  same "first build" (zeta_fresh 5000 0.9) (Zipf.zetan a);
  let b = Zipf.create ~n:5000 ~theta:0.9 in
  same "same key space, remembered" (zeta_fresh 5000 0.9) (Zipf.zetan b);
  same "other theta recomputed" (zeta_fresh 5000 0.3)
    (Zipf.zetan (Zipf.create ~n:5000 ~theta:0.3));
  same "other n recomputed" (zeta_fresh 4999 0.3)
    (Zipf.zetan (Zipf.create ~n:4999 ~theta:0.3));
  same "back to the first" (zeta_fresh 5000 0.9)
    (Zipf.zetan (Zipf.create ~n:5000 ~theta:0.9));
  let rng () = Rcc_common.Rng.create 3 in
  let ra = rng () and rb = rng () in
  for _ = 1 to 100 do
    check Alcotest.int "remembered generator draws the same" (Zipf.next a ra)
      (Zipf.next b rb)
  done

let test_txn_check_at () =
  let u64 v = Rcc_common.Bytes_util.u64_string v in
  let rejected what s =
    match Txn.check_at s 0 with
    | () -> Alcotest.failf "%s accepted" what
    | exception Rcc_common.Wire.Malformed _ -> ()
  in
  Txn.check_at (u64 5L ^ u64 0L ^ u64 0L) 0;
  Txn.check_at (u64 5L ^ u64 1L ^ u64 (-7L)) 0;
  rejected "read with a value" (u64 5L ^ u64 0L ^ u64 9L);
  rejected "read with a value past 63 bits" (u64 5L ^ u64 0L ^ u64 Int64.min_int);
  rejected "op tag 2" (u64 5L ^ u64 2L ^ u64 0L);
  rejected "op tag with bit 63" (u64 5L ^ u64 Int64.min_int ^ u64 0L);
  rejected "key past 63 bits" (u64 Int64.max_int ^ u64 1L ^ u64 0L);
  rejected "value past 63 bits" (u64 5L ^ u64 1L ^ u64 Int64.min_int)

let test_txn_equal_pp () =
  let a = Txn.{ key = 1; op = Write 2 } in
  check Alcotest.bool "equal self" true (Txn.equal a a);
  check Alcotest.bool "read <> write" false (Txn.equal a Txn.{ key = 1; op = Read });
  check Alcotest.string "pp write" "W(1:=2)" (Format.asprintf "%a" Txn.pp a);
  check Alcotest.string "pp read" "R(3)"
    (Format.asprintf "%a" Txn.pp Txn.{ key = 3; op = Read })

let suite =
  ( "workload",
    [
      zipf_bounds;
      Alcotest.test_case "zipf skew" `Quick test_zipf_skew;
      Alcotest.test_case "zipf determinism" `Quick test_zipf_determinism;
      Alcotest.test_case "zipf validation" `Quick test_zipf_validation;
      Alcotest.test_case "zipf skew monotone" `Quick test_zipf_skew_monotone_in_theta;
      Alcotest.test_case "zipf normalizer memo" `Quick test_zipf_memo;
      Alcotest.test_case "ycsb write ratio" `Quick test_ycsb_write_ratio;
      Alcotest.test_case "ycsb batch/store" `Quick test_ycsb_batch_and_store;
      Alcotest.test_case "txn apply" `Quick test_txn_apply;
      txn_encode_distinct;
      Alcotest.test_case "txn check_at" `Quick test_txn_check_at;
      Alcotest.test_case "txn equal/pp" `Quick test_txn_equal_pp;
    ] )
