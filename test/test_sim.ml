(* Simulation substrate tests: engine ordering, virtual CPU servers,
   network model. *)

module Engine = Rcc_sim.Engine
module Cpu = Rcc_sim.Cpu
module Net = Rcc_sim.Net
module Costs = Rcc_sim.Costs

let check = Alcotest.check

(* --- engine ----------------------------------------------------------------- *)

let test_engine_order () =
  let engine = Engine.create () in
  let log = ref [] in
  Engine.schedule_at engine 30 (fun () -> log := 30 :: !log);
  Engine.schedule_at engine 10 (fun () -> log := 10 :: !log);
  Engine.schedule_at engine 20 (fun () -> log := 20 :: !log);
  Engine.run engine ~until:100;
  check Alcotest.(list int) "timestamp order" [ 10; 20; 30 ] (List.rev !log);
  check Alcotest.int "now is until" 100 (Engine.now engine)

let test_engine_tie_fifo () =
  let engine = Engine.create () in
  let log = ref [] in
  List.iter
    (fun v -> Engine.schedule_at engine 5 (fun () -> log := v :: !log))
    [ 1; 2; 3 ];
  Engine.run engine ~until:10;
  check Alcotest.(list int) "insertion order among ties" [ 1; 2; 3 ] (List.rev !log)

let test_engine_past_rejected () =
  let engine = Engine.create () in
  Engine.schedule_at engine 10 (fun () -> ());
  Engine.run engine ~until:50;
  Alcotest.check_raises "past scheduling"
    (Invalid_argument "Engine.schedule_at: scheduling in the past") (fun () ->
      Engine.schedule_at engine 10 (fun () -> ()))

let test_engine_nested_schedule () =
  let engine = Engine.create () in
  let fired = ref 0 in
  Engine.schedule_at engine 10 (fun () ->
      Engine.schedule_after engine 5 (fun () -> fired := Engine.now engine));
  Engine.run engine ~until:100;
  check Alcotest.int "nested event at 15" 15 !fired

let test_engine_units () =
  check Alcotest.int "us" 1_000 (Engine.us 1);
  check Alcotest.int "ms" 1_000_000 (Engine.ms 1);
  check Alcotest.int "s" 1_000_000_000 (Engine.s 1);
  check Alcotest.int "of_seconds" 1_500_000_000 (Engine.of_seconds 1.5);
  check (Alcotest.float 1e-9) "to_seconds" 1.5 (Engine.to_seconds (Engine.of_seconds 1.5))

(* --- cpu servers -------------------------------------------------------------- *)

let test_cpu_fifo_queueing () =
  let engine = Engine.create () in
  let srv = Cpu.server engine ~name:"w" () in
  let log = ref [] in
  (* Two jobs submitted back-to-back serialize: 0..100, 100..150. *)
  Cpu.submit srv ~cost:100 (fun () -> log := ("a", Engine.now engine) :: !log);
  Cpu.submit srv ~cost:50 (fun () -> log := ("b", Engine.now engine) :: !log);
  Engine.run engine ~until:1000;
  check
    Alcotest.(list (pair string int))
    "completion times" [ ("a", 100); ("b", 150) ] (List.rev !log);
  check (Alcotest.float 1e-9) "busy 150 of 1000 ns" 0.15
    (Cpu.utilization srv ~since:0)

let test_cpu_idle_gap () =
  let engine = Engine.create () in
  let srv = Cpu.server engine ~name:"w" () in
  let completions = ref [] in
  Cpu.submit srv ~cost:10 (fun () -> completions := Engine.now engine :: !completions);
  Engine.schedule_at engine 500 (fun () ->
      Cpu.submit srv ~cost:10 (fun () ->
          completions := Engine.now engine :: !completions));
  Engine.run engine ~until:1000;
  check Alcotest.(list int) "idle server restarts at now" [ 10; 510 ]
    (List.rev !completions)

let test_cpu_ready_time () =
  let engine = Engine.create () in
  let srv = Cpu.server engine ~name:"w" () in
  let fired = ref 0 in
  Cpu.submit_ready srv ~ready:200 ~cost:25 (fun () -> fired := Engine.now engine);
  Engine.run engine ~until:1000;
  check Alcotest.int "starts no earlier than ready" 225 !fired

let test_cpu_reserve_chain () =
  let engine = Engine.create () in
  let srv = Cpu.server engine ~name:"w" () in
  let a = Cpu.reserve srv ~ready:0 ~cost:10 in
  let b = Cpu.reserve srv ~ready:0 ~cost:10 in
  check Alcotest.int "first" 10 a;
  check Alcotest.int "second queues" 20 b

let test_pool_earliest_dispatch () =
  let engine = Engine.create () in
  let pool = Cpu.pool engine ~name:"in" ~size:2 () in
  let done_at = List.init 4 (fun _ -> Cpu.pool_reserve pool ~ready:0 ~cost:10) in
  (* 4 jobs over 2 servers: two finish at 10, two at 20. *)
  check Alcotest.(list int) "parallel dispatch" [ 10; 10; 20; 20 ]
    (List.sort compare done_at)

(* --- network -------------------------------------------------------------------- *)

let make_net ?(latency = Engine.us 100) ?(jitter = 0) ?(gbps = 8.0) ~nodes engine =
  Net.create engine ~nodes ~latency ~jitter ~gbps
    ~rng:(Rcc_common.Rng.create 1) ()

let test_net_delivery () =
  let engine = Engine.create () in
  let net = make_net ~nodes:2 engine in
  let got = ref None in
  Net.register net 1 (fun ~src ~size msg -> got := Some (src, size, msg));
  (* 1000 bytes at 8 Gbit/s = 1000 ns serialization, + 100 us latency. *)
  Net.send net ~src:0 ~dst:1 ~size:1000 "hello";
  Engine.run engine ~until:Engine.(ms 10);
  check
    Alcotest.(option (triple int int string))
    "delivered" (Some (0, 1000, "hello")) !got

let test_net_bandwidth_serializes () =
  let engine = Engine.create () in
  let net = make_net ~latency:0 ~nodes:2 engine in
  let times = ref [] in
  Net.register net 1 (fun ~src:_ ~size:_ () -> times := Engine.now engine :: !times);
  (* Two 1000-byte messages share the sender NIC: arrivals at 1 us and 2 us. *)
  Net.send net ~src:0 ~dst:1 ~size:1000 ();
  Net.send net ~src:0 ~dst:1 ~size:1000 ();
  Engine.run engine ~until:Engine.(ms 1);
  check Alcotest.(list int) "NIC serialization" [ 1000; 2000 ] (List.rev !times)

let test_net_dead_nodes () =
  let engine = Engine.create () in
  let net = make_net ~nodes:3 engine in
  let count = ref 0 in
  Net.register net 1 (fun ~src:_ ~size:_ () -> incr count);
  Net.set_dead net 2 true;
  check Alcotest.bool "is_dead" true (Net.is_dead net 2);
  Net.send net ~src:2 ~dst:1 ~size:10 ();
  (* dead sender *)
  Net.set_dead net 1 true;
  Net.send net ~src:0 ~dst:1 ~size:10 ();
  (* dead receiver *)
  Engine.run engine ~until:Engine.(ms 10);
  check Alcotest.int "nothing delivered" 0 !count

(* Regression: [send] used to return early when the *destination* was
   dead, skipping the sender's NIC serialization and the traffic
   counters — a sender cannot know the peer is down. Two large messages
   to a dead node must still queue on the sender's egress and delay a
   later message to a live node. *)
let test_net_dead_dst_costs_sender () =
  let engine = Engine.create () in
  let net = make_net ~latency:0 ~nodes:3 engine in
  let arrival = ref None in
  Net.register net 1 (fun ~src:_ ~size:_ () -> arrival := Some (Engine.now engine));
  Net.set_dead net 2 true;
  (* 10_000 bytes at 8 Gbit/s = 10 us serialization each. *)
  Net.send net ~src:0 ~dst:2 ~size:10_000 ();
  Net.send net ~src:0 ~dst:2 ~size:10_000 ();
  Net.send net ~src:0 ~dst:1 ~size:1_000 ();
  Engine.run engine ~until:Engine.(ms 10);
  (match !arrival with
  | Some at ->
      check Alcotest.int "queued behind dead-dst traffic"
        (Engine.us 21) at
  | None -> Alcotest.fail "live destination never got the message");
  check Alcotest.int "all sends counted" 3 (Net.messages_sent net);
  check Alcotest.int "all bytes counted" 21_000 (Net.bytes_sent net)

let test_net_drop_rule () =
  let engine = Engine.create () in
  let net = make_net ~nodes:2 engine in
  let count = ref 0 in
  Net.register net 1 (fun ~src:_ ~size:_ () -> incr count);
  let rule = Net.add_drop_rule net (fun ~src ~dst:_ _ -> src = 0) in
  Net.send net ~src:0 ~dst:1 ~size:10 ();
  Net.remove_rule net rule;
  Net.send net ~src:0 ~dst:1 ~size:10 ();
  Engine.run engine ~until:Engine.(ms 10);
  check Alcotest.int "only undropped delivered" 1 !count

let test_net_stats () =
  let engine = Engine.create () in
  let net = make_net ~nodes:2 engine in
  Net.register net 1 (fun ~src:_ ~size:_ () -> ());
  Net.send net ~src:0 ~dst:1 ~size:100 ();
  Net.send net ~src:0 ~dst:1 ~size:200 ();
  Engine.run engine ~until:Engine.(ms 10);
  check Alcotest.int "messages" 2 (Net.messages_sent net);
  check Alcotest.int "bytes" 300 (Net.bytes_sent net)

let test_net_revive_fresh_incarnation () =
  let engine = Engine.create () in
  let net = make_net ~nodes:2 engine in
  let got = ref [] in
  Net.register net 1 (fun ~src:_ ~size:_ msg -> got := msg :: !got);
  (* In flight when the node crashes (arrival ~100 us), revived before
     arrival: a restarted process does not inherit the wire, so the
     pre-crash message must be discarded on arrival. *)
  Net.send net ~src:0 ~dst:1 ~size:10 "pre-crash";
  Engine.run engine ~until:(Engine.us 10);
  Net.set_dead net 1 true;
  Engine.run engine ~until:(Engine.us 20);
  Net.set_dead net 1 false;
  check Alcotest.int "second incarnation" 1 (Net.incarnation net 1);
  Engine.run engine ~until:(Engine.ms 1);
  check Alcotest.(list string) "pre-crash traffic discarded" [] !got;
  (* Post-revive traffic flows normally. *)
  Net.send net ~src:0 ~dst:1 ~size:10 "post-revive";
  Engine.run engine ~until:(Engine.ms 2);
  check Alcotest.(list string) "fresh NIC delivers" [ "post-revive" ] !got

let test_net_rules_compose () =
  let engine = Engine.create () in
  let net = make_net ~latency:0 ~jitter:0 ~nodes:3 engine in
  let arrivals = ref [] in
  Net.register net 1 (fun ~src:_ ~size:_ () ->
      arrivals := Engine.now engine :: !arrivals);
  (* Two delay rules accumulate; a drop rule on another link does not
     interfere. 100 bytes at 8 Gbit/s = 100 ns serialization. *)
  let d1 = Net.add_delay_rule net (fun ~src:_ ~dst -> if dst = 1 then Engine.us 10 else 0) in
  let _d2 = Net.add_delay_rule net (fun ~src:_ ~dst -> if dst = 1 then Engine.us 5 else 0) in
  let drop = Net.add_drop_rule net (fun ~src:_ ~dst _msg -> dst = 2) in
  Net.send net ~src:0 ~dst:1 ~size:100 ();
  Engine.run engine ~until:(Engine.ms 1);
  check Alcotest.(list int) "delays accumulate" [ Engine.us 15 + 100 ] !arrivals;
  (* Removing one delay rule leaves the other active. *)
  Net.remove_rule net d1;
  arrivals := [];
  Net.send net ~src:0 ~dst:1 ~size:100 ();
  Engine.run engine ~until:(Engine.ms 2);
  (match !arrivals with
  | [ at ] ->
      check Alcotest.bool "only removed rule's delay gone" true
        (at - Engine.ms 1 < Engine.us 15 + 100)
  | _ -> Alcotest.fail "expected one arrival");
  (* The drop rule still cuts 0 -> 2 until removed. *)
  let got2 = ref 0 in
  Net.register net 2 (fun ~src:_ ~size:_ () -> incr got2);
  Net.send net ~src:0 ~dst:2 ~size:100 ();
  Engine.run engine ~until:(Engine.ms 3);
  check Alcotest.int "drop rule cuts link" 0 !got2;
  Net.remove_rule net drop;
  Net.send net ~src:0 ~dst:2 ~size:100 ();
  Engine.run engine ~until:(Engine.ms 4);
  check Alcotest.int "drop rule removed" 1 !got2

let test_net_dup_rule () =
  let engine = Engine.create () in
  let net = make_net ~latency:0 ~jitter:0 ~nodes:2 engine in
  let count = ref 0 in
  Net.register net 1 (fun ~src:_ ~size:_ () -> incr count);
  let dup = Net.add_dup_rule net (fun ~src:_ ~dst:_ _ -> 2) in
  Net.send net ~src:0 ~dst:1 ~size:100 ();
  Engine.run engine ~until:(Engine.ms 1);
  check Alcotest.int "two extra copies" 3 !count;
  Net.remove_rule net dup

(* Model-based property: the virtual-timestamp server behaves exactly like
   a reference FIFO queue — completion_i = max(ready_i, completion_{i-1})
   + cost_i in submission order. *)
let cpu_matches_fifo_model =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:200 ~name:"cpu: virtual time = FIFO queue model"
       QCheck2.Gen.(
         list_size (int_range 1 20) (pair (int_range 0 1000) (int_range 0 500)))
       (fun jobs ->
         let engine = Engine.create () in
         let srv = Cpu.server engine ~name:"m" () in
         let completions = ref [] in
         List.iter
           (fun (ready, cost) ->
             Cpu.submit_ready srv ~ready ~cost (fun () ->
                 completions := Engine.now engine :: !completions))
           jobs;
         Engine.run engine ~until:max_int;
         let expected =
           List.rev
             (fst
                (List.fold_left
                   (fun (acc, free) (ready, cost) ->
                     let finish = max ready free + cost in
                     (finish :: acc, finish))
                   ([], 0) jobs))
         in
         (* Completion callbacks fire in timestamp order; sorting both
            sides compares the multisets and the model order. *)
         List.sort compare !completions = List.sort compare expected))

(* --- costs ----------------------------------------------------------------------- *)

let test_costs_scaling () =
  let base = Costs.default in
  let scaled = Costs.scaled base 2.0 in
  check Alcotest.int "sign doubles" (2 * base.Costs.sign) scaled.Costs.sign;
  (* Down-scaling used to be a silent no-op (any factor <= 1.0 returned
     [t] unchanged); [0 < factor < 1] now means faster hardware. *)
  check Alcotest.int "sign halves" (base.Costs.sign / 2)
    (Costs.scaled base 0.5).Costs.sign;
  check Alcotest.int "identity at 1" base.Costs.sign
    (Costs.scaled base 1.0).Costs.sign;
  check Alcotest.int "identity at 0 (nonsense factor)" base.Costs.sign
    (Costs.scaled base 0.0).Costs.sign;
  check Alcotest.int "identity below 0 (nonsense factor)" base.Costs.sign
    (Costs.scaled base (-2.0)).Costs.sign;
  check Alcotest.int "fsync halves" (base.Costs.fsync / 2)
    (Costs.scaled base 0.5).Costs.fsync;
  check Alcotest.bool "disk_per_byte scales" true
    (Float.abs ((Costs.scaled base 0.5).Costs.disk_per_byte
                -. (0.5 *. base.Costs.disk_per_byte))
     < 1e-9);
  check Alcotest.bool "hash grows with size" true
    (Costs.hash_cost base 5400 > Costs.hash_cost base 250)

let suite =
  ( "sim",
    [
      Alcotest.test_case "engine order" `Quick test_engine_order;
      Alcotest.test_case "engine tie fifo" `Quick test_engine_tie_fifo;
      Alcotest.test_case "engine rejects past" `Quick test_engine_past_rejected;
      Alcotest.test_case "engine nested" `Quick test_engine_nested_schedule;
      Alcotest.test_case "engine units" `Quick test_engine_units;
      Alcotest.test_case "cpu fifo" `Quick test_cpu_fifo_queueing;
      Alcotest.test_case "cpu idle gap" `Quick test_cpu_idle_gap;
      Alcotest.test_case "cpu ready time" `Quick test_cpu_ready_time;
      Alcotest.test_case "cpu reserve chain" `Quick test_cpu_reserve_chain;
      Alcotest.test_case "pool dispatch" `Quick test_pool_earliest_dispatch;
      Alcotest.test_case "net delivery" `Quick test_net_delivery;
      Alcotest.test_case "net bandwidth" `Quick test_net_bandwidth_serializes;
      Alcotest.test_case "net dead nodes" `Quick test_net_dead_nodes;
      Alcotest.test_case "net dead dst costs sender" `Quick
        test_net_dead_dst_costs_sender;
      Alcotest.test_case "net drop rule" `Quick test_net_drop_rule;
      Alcotest.test_case "net stats" `Quick test_net_stats;
      Alcotest.test_case "net revive fresh incarnation" `Quick
        test_net_revive_fresh_incarnation;
      Alcotest.test_case "net rules compose" `Quick test_net_rules_compose;
      Alcotest.test_case "net dup rule" `Quick test_net_dup_rule;
      cpu_matches_fifo_model;
      Alcotest.test_case "costs scaling" `Quick test_costs_scaling;
    ] )
