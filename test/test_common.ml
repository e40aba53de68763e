(* Unit and property tests for the rcc_common substrate. *)

module Rng = Rcc_common.Rng
module Binary_heap = Rcc_common.Binary_heap
module Bitset = Rcc_common.Bitset
module Stats = Rcc_common.Stats
module Bytes_util = Rcc_common.Bytes_util
module Wire = Rcc_common.Wire

let check = Alcotest.check
let qtest ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* --- rng ---------------------------------------------------------------- *)

let test_rng_determinism () =
  let a = Rng.create 7 and b = Rng.create 7 in
  for _ = 1 to 100 do
    check Alcotest.int64 "same stream" (Rng.next_int64 a) (Rng.next_int64 b)
  done

let test_rng_split_independent () =
  let a = Rng.create 7 in
  let child = Rng.split a in
  check Alcotest.bool "split differs from parent"
    (Rng.next_int64 child <> Rng.next_int64 a)
    true

let rng_bounds =
  qtest "rng: int within bound"
    QCheck2.Gen.(pair (int_range 1 1_000_000) small_int)
    (fun (bound, seed) ->
      let rng = Rng.create seed in
      let v = Rng.int rng bound in
      v >= 0 && v < bound)

let rng_float_bounds =
  qtest "rng: float within bound"
    QCheck2.Gen.small_int
    (fun seed ->
      let rng = Rng.create seed in
      let v = Rng.float rng 3.5 in
      v >= 0.0 && v < 3.5)

let test_rng_shuffle_permutes () =
  let rng = Rng.create 11 in
  let a = Array.init 50 (fun i -> i) in
  Rng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  check
    Alcotest.(array int)
    "shuffle preserves elements" sorted
    (Array.init 50 (fun i -> i))

(* --- binary heap -------------------------------------------------------- *)

let heap_sorted =
  qtest "heap: pops in priority order"
    QCheck2.Gen.(list_size (int_range 0 200) (int_range (-1000) 1000))
    (fun priorities ->
      let h = Binary_heap.create ~dummy:0 () in
      List.iter (fun p -> Binary_heap.push h ~priority:p p) priorities;
      let rec drain last =
        match Binary_heap.pop h with
        | None -> true
        | Some (p, v) -> p = v && p >= last && drain p
      in
      drain min_int)

(* Model test: an arbitrary interleaving of pushes and pops must behave
   exactly like a stable-sorted reference list — same pop results in the
   same order (min priority first, FIFO among equal priorities), same
   emptiness at every step. Values record insertion order so stability
   violations are detected, not just mis-ordering of priorities. *)
let heap_model =
  qtest ~count:500 "heap: model equivalence (push/pop vs stable sort)"
    QCheck2.Gen.(
      list_size (int_range 0 300)
        (oneof [ map (fun p -> Some p) (int_range 0 20); pure None ]))
    (fun ops ->
      let h = Binary_heap.create ~dummy:(-1, -1) () in
      (* Reference: a sorted association list of (priority, insertion_id),
         kept stable by inserting after existing equal priorities. *)
      let model = ref [] in
      let insert p v =
        let rec go = function
          | (p', v') :: rest when p' <= p -> (p', v') :: go rest
          | rest -> (p, v) :: rest
        in
        model := go !model
      in
      let id = ref 0 in
      List.for_all
        (fun op ->
          match op with
          | Some p ->
              let v = !id in
              incr id;
              Binary_heap.push h ~priority:p (p, v);
              insert p (p, v);
              Binary_heap.size h = List.length !model
          | None -> (
              match (Binary_heap.pop h, !model) with
              | None, [] -> true
              | Some (p, v), (mp, mv) :: rest ->
                  model := rest;
                  p = mp && v = mv
              | _ -> false))
        ops
      && (* Drain what remains and compare the tails too. *)
      List.for_all
        (fun (mp, mv) ->
          match Binary_heap.pop h with
          | Some (p, v) -> p = mp && v = mv
          | None -> false)
        !model
      && Binary_heap.is_empty h)

let test_heap_fifo_ties () =
  let h = Binary_heap.create ~dummy:0 () in
  List.iter (fun v -> Binary_heap.push h ~priority:5 v) [ 1; 2; 3; 4 ];
  let popped = List.init 4 (fun _ -> snd (Option.get (Binary_heap.pop h))) in
  check Alcotest.(list int) "equal priorities are FIFO" [ 1; 2; 3; 4 ] popped

let test_heap_size_clear () =
  let h = Binary_heap.create ~capacity:2 ~dummy:0 () in
  for i = 1 to 100 do
    Binary_heap.push h ~priority:i i
  done;
  check Alcotest.int "size" 100 (Binary_heap.size h);
  check Alcotest.(option int) "peek" (Some 1) (Binary_heap.peek_priority h);
  Binary_heap.clear h;
  check Alcotest.bool "empty after clear" true (Binary_heap.is_empty h)

let test_heap_nonalloc_accessors () =
  let h = Binary_heap.create ~dummy:0 () in
  Alcotest.check_raises "min_priority empty"
    (Invalid_argument "Binary_heap.min_priority: empty heap") (fun () ->
      ignore (Binary_heap.min_priority h));
  Alcotest.check_raises "pop_min_exn empty"
    (Invalid_argument "Binary_heap.pop_min_exn: empty heap") (fun () ->
      ignore (Binary_heap.pop_min_exn h));
  Binary_heap.push h ~priority:9 90;
  Binary_heap.push h ~priority:3 30;
  check Alcotest.int "min_priority" 3 (Binary_heap.min_priority h);
  check Alcotest.int "pop_min_exn" 30 (Binary_heap.pop_min_exn h);
  check Alcotest.int "next min" 9 (Binary_heap.min_priority h);
  check Alcotest.int "next pop" 90 (Binary_heap.pop_min_exn h);
  check Alcotest.bool "empty" true (Binary_heap.is_empty h)

(* Model test for the slot-array layout: random interleavings of [push],
   [pop_min_exn] (with [min_priority]), [pop] and [clear], starting from
   the minimum capacity so the heap grows several times and reuses
   payload slots after pops and clears. Pops must equal a stable sort by
   (priority, insertion order). *)
type heap_op = Push of int | Pop_min | Pop | Clear

let heap_slots_model =
  qtest ~count:300 "heap: push/pop_min_exn/pop/clear vs stable sort"
    QCheck2.Gen.(
      list_size (int_range 0 400)
        (frequency
           [
             (10, map (fun p -> Push p) (int_range 0 30));
             (4, pure Pop_min);
             (4, pure Pop);
             (1, pure Clear);
           ]))
    (fun ops ->
      let h = Binary_heap.create ~capacity:1 ~dummy:(-1, -1) () in
      let model = ref [] and id = ref 0 in
      let insert e =
        let rec go = function
          | ((p', _) as x) :: rest when p' <= fst e -> x :: go rest
          | rest -> e :: rest
        in
        model := go !model
      in
      List.for_all
        (fun op ->
          (match (op, !model) with
          | Push p, _ ->
              Binary_heap.push h ~priority:p (p, !id);
              insert (p, !id);
              incr id;
              true
          | Pop_min, [] -> Binary_heap.is_empty h
          | Pop_min, ((mp, _) as e) :: rest ->
              model := rest;
              Binary_heap.min_priority h = mp && Binary_heap.pop_min_exn h = e
          | Pop, [] -> Binary_heap.pop h = None
          | Pop, ((mp, _) as e) :: rest ->
              model := rest;
              Binary_heap.pop h = Some (mp, e)
          | Clear, _ ->
              Binary_heap.clear h;
              model := [];
              true)
          && Binary_heap.size h = List.length !model)
        ops
      && List.for_all (fun e -> Binary_heap.pop_min_exn h = e) !model
      && Binary_heap.is_empty h)

(* The engine's [cancel] relies on the heap dropping its reference to a
   payload as soon as it is popped or cleared. *)
let test_heap_releases_payloads () =
  let h = Binary_heap.create ~dummy:Bytes.empty () in
  let w = Weak.create 4 in
  let[@inline never] push_tracked i =
    let b = Bytes.make 16 (Char.chr (65 + i)) in
    Weak.set w i (Some b);
    Binary_heap.push h ~priority:i b
  in
  List.iter push_tracked [ 0; 1; 2; 3 ];
  ignore (Binary_heap.pop_min_exn h);
  ignore (Binary_heap.pop h);
  Gc.full_major ();
  check Alcotest.bool "pop_min_exn payload collected" false (Weak.check w 0);
  check Alcotest.bool "pop payload collected" false (Weak.check w 1);
  check Alcotest.bool "queued payloads kept" true (Weak.check w 2 && Weak.check w 3);
  Binary_heap.clear h;
  Gc.full_major ();
  check Alcotest.bool "cleared payloads collected" false
    (Weak.check w 2 || Weak.check w 3);
  (* The heap itself must outlive the checks above. *)
  check Alcotest.bool "heap reusable" true (Binary_heap.is_empty h)

(* --- bitset -------------------------------------------------------------- *)

let bitset_membership =
  qtest "bitset: add implies mem, count matches"
    QCheck2.Gen.(list_size (int_range 0 100) (int_range 0 199))
    (fun elems ->
      let b = Bitset.create 200 in
      List.iter (fun e -> ignore (Bitset.add b e)) elems;
      let distinct = List.sort_uniq compare elems in
      List.for_all (fun e -> Bitset.mem b e) distinct
      && Bitset.count b = List.length distinct
      && Bitset.to_list b = distinct)

let test_bitset_add_reports_new () =
  let b = Bitset.create 10 in
  check Alcotest.bool "first add" true (Bitset.add b 3);
  check Alcotest.bool "second add" false (Bitset.add b 3);
  check Alcotest.int "count once" 1 (Bitset.count b)

let test_bitset_bounds () =
  let b = Bitset.create 4 in
  Alcotest.check_raises "out of range" (Invalid_argument "Bitset: index out of range")
    (fun () -> ignore (Bitset.add b 4))

(* --- stats --------------------------------------------------------------- *)

let test_summary_against_naive () =
  let values = [ 4.0; 8.0; 15.0; 16.0; 23.0; 42.0 ] in
  let s = Stats.Summary.create () in
  List.iter (Stats.Summary.add s) values;
  let n = float_of_int (List.length values) in
  let mean = List.fold_left ( +. ) 0.0 values /. n in
  check (Alcotest.float 1e-9) "mean" mean (Stats.Summary.mean s);
  check (Alcotest.float 1e-9) "min" 4.0 (Stats.Summary.min s);
  check (Alcotest.float 1e-9) "max" 42.0 (Stats.Summary.max s);
  let var =
    List.fold_left (fun acc v -> acc +. ((v -. mean) ** 2.0)) 0.0 values
    /. (n -. 1.0)
  in
  check (Alcotest.float 1e-9) "stddev" (sqrt var) (Stats.Summary.stddev s)

let summary_merge =
  qtest "summary: merge equals bulk"
    QCheck2.Gen.(pair (list_size (int_range 1 50) (float_bound_exclusive 100.0))
                   (list_size (int_range 1 50) (float_bound_exclusive 100.0)))
    (fun (xs, ys) ->
      let a = Stats.Summary.create () and b = Stats.Summary.create () in
      List.iter (Stats.Summary.add a) xs;
      List.iter (Stats.Summary.add b) ys;
      let merged = Stats.Summary.merge a b in
      let all = Stats.Summary.create () in
      List.iter (Stats.Summary.add all) (xs @ ys);
      abs_float (Stats.Summary.mean merged -. Stats.Summary.mean all) < 1e-6
      && Stats.Summary.count merged = Stats.Summary.count all)

let test_histogram_percentiles () =
  let h = Stats.Histogram.create () in
  for i = 1 to 1000 do
    Stats.Histogram.add h (float_of_int i /. 1000.0)
  done;
  let p50 = Stats.Histogram.percentile h 0.5 in
  check Alcotest.bool "p50 near 0.5" (p50 > 0.45 && p50 < 0.55) true;
  let p99 = Stats.Histogram.percentile h 0.99 in
  check Alcotest.bool "p99 near 0.99" (p99 > 0.9 && p99 < 1.1) true;
  check Alcotest.int "count" 1000 (Stats.Histogram.count h)

(* Regression: percentile used to return the bucket's lower bound, which
   biases every estimate low by up to a full bucket (~2%). With the
   geometric midpoint, a point mass must come back within the half-bucket
   relative error sqrt(1.02) - 1 (~1%) on either side. *)
let test_histogram_midpoint () =
  let rel_err = sqrt 1.02 -. 1.0 in
  List.iter
    (fun v ->
      let h = Stats.Histogram.create () in
      for _ = 1 to 100 do
        Stats.Histogram.add h v
      done;
      List.iter
        (fun p ->
          let est = Stats.Histogram.percentile h p in
          check Alcotest.bool
            (Printf.sprintf "p%.0f of point mass %g within half bucket"
               (100.0 *. p) v)
            true
            (abs_float (est -. v) /. v <= rel_err +. 1e-9))
        [ 0.01; 0.5; 0.99 ])
    [ 1e-6; 0.004; 0.25; 3.0 ];
  (* Uniform 1..1000 ms: the old lower-bound estimate was consistently
     below the true quantile; the midpoint must straddle it. *)
  let h = Stats.Histogram.create () in
  for i = 1 to 1000 do
    Stats.Histogram.add h (float_of_int i /. 1000.0)
  done;
  let p50 = Stats.Histogram.percentile h 0.5 in
  check Alcotest.bool "uniform p50 within 2%" true
    (abs_float (p50 -. 0.5) /. 0.5 <= 0.02)

let test_series_buckets () =
  let s = Stats.Series.create ~bucket_width:0.5 () in
  Stats.Series.add s ~time:0.1 10.0;
  Stats.Series.add s ~time:0.4 5.0;
  Stats.Series.add s ~time:1.2 7.0;
  let buckets = Stats.Series.buckets s in
  check Alcotest.int "three buckets" 3 (Array.length buckets);
  check (Alcotest.float 1e-9) "bucket 0 total" 15.0 (snd buckets.(0));
  check (Alcotest.float 1e-9) "bucket 1 empty" 0.0 (snd buckets.(1));
  check (Alcotest.float 1e-9) "bucket 2 total" 7.0 (snd buckets.(2));
  let rates = Stats.Series.rates s in
  check (Alcotest.float 1e-9) "rate is per second" 30.0 (snd rates.(0))

(* --- bytes util ----------------------------------------------------------- *)

let hex_roundtrip =
  qtest "hex: roundtrip" QCheck2.Gen.string (fun s ->
      Bytes_util.of_hex (Bytes_util.hex s) = s)

let u64_roundtrip =
  qtest "u64: roundtrip" QCheck2.Gen.int64 (fun v ->
      Bytes_util.get_u64be (Bytes_util.u64_string v) 0 = v)

let test_xor () =
  check Alcotest.string "xor self is zero"
    (String.make 4 '\x00')
    (Bytes_util.xor "abcd" "abcd");
  check Alcotest.string "xor known" "\x03\x01" (Bytes_util.xor "\x01\x02" "\x02\x03")

(* --- wire ----------------------------------------------------------------- *)

(* Every writer emits exactly its size helper's bytes, the readers get
   the values back, and the bytes are the big-endian layout. *)
let wire_roundtrip =
  qtest ~count:300 "wire: write sizes and read back"
    QCheck2.Gen.(
      quad int (string_size (int_range 0 40)) (list_size (int_range 0 8) int) bool)
    (fun (v, str, ints, flag) ->
      let len = 8 + Wire.string_size str + Wire.int_list_size ints + 1 + 2 in
      let b = Bytes.create len in
      let stop =
        Wire.put_int b v 0
        |> Wire.put_string b str
        |> Wire.put_int_list b ints
        |> Wire.put_bool b flag
        |> Wire.put_raw b "ok"
      in
      let s = Bytes.to_string b in
      let decoded =
        Wire.decode
          (fun r ->
            let v' = Wire.int r in
            let str' = Wire.string r ~max:40 in
            let ints' = Wire.int_list r ~max:8 in
            let flag' = Wire.bool r in
            Wire.magic r "ok";
            (v', str', ints', flag'))
          s
      in
      stop = len
      && Bytes_util.get_u64be s 0 = Int64.of_int v
      && decoded = Ok (v, str, ints, flag))

let test_wire_bounds () =
  let u64 v = Bytes_util.u64_string (Int64.of_int v) in
  let err what read s =
    check Alcotest.bool what true (Result.is_error (Wire.decode read s))
  in
  (* [need] must not overflow on a forged length near max_int. *)
  err "huge string length" (Wire.string ~max:max_int) (u64 max_int ^ "abc");
  err "negative string length" (Wire.string ~max:max_int) (u64 (-1) ^ "abc");
  err "string over its bound" (Wire.string ~max:2) (u64 3 ^ "abc");
  err "list over its bound" (Wire.int_list ~max:1) (u64 2 ^ u64 0 ^ u64 0);
  err "truncated int" Wire.int "\x00\x00";
  err "bad boolean" Wire.bool "\x02";
  err "bad magic" (fun r -> Wire.magic r "RCC") "RCX";
  err "short magic" (fun r -> Wire.magic r "RCC") "RC";
  err "trailing bytes" Wire.int (u64 1 ^ "x");
  let r = Wire.reader "abcdef" ~pos:1 ~limit:4 in
  Wire.skip r 3;
  check Alcotest.bool "limit honoured" true
    (match Wire.byte r with _ -> false | exception Wire.Malformed _ -> true);
  Wire.finish r

let suite =
  ( "common",
    [
      Alcotest.test_case "rng determinism" `Quick test_rng_determinism;
      Alcotest.test_case "rng split" `Quick test_rng_split_independent;
      rng_bounds;
      rng_float_bounds;
      Alcotest.test_case "rng shuffle" `Quick test_rng_shuffle_permutes;
      heap_sorted;
      heap_model;
      Alcotest.test_case "heap fifo ties" `Quick test_heap_fifo_ties;
      Alcotest.test_case "heap size/clear" `Quick test_heap_size_clear;
      Alcotest.test_case "heap non-allocating accessors" `Quick
        test_heap_nonalloc_accessors;
      heap_slots_model;
      Alcotest.test_case "heap releases payloads" `Quick
        test_heap_releases_payloads;
      bitset_membership;
      Alcotest.test_case "bitset add reports new" `Quick test_bitset_add_reports_new;
      Alcotest.test_case "bitset bounds" `Quick test_bitset_bounds;
      Alcotest.test_case "summary vs naive" `Quick test_summary_against_naive;
      summary_merge;
      Alcotest.test_case "histogram percentiles" `Quick test_histogram_percentiles;
      Alcotest.test_case "histogram midpoint" `Quick test_histogram_midpoint;
      Alcotest.test_case "series buckets" `Quick test_series_buckets;
      hex_roundtrip;
      u64_roundtrip;
      Alcotest.test_case "xor" `Quick test_xor;
      wire_roundtrip;
      Alcotest.test_case "wire bounds" `Quick test_wire_bounds;
    ] )
