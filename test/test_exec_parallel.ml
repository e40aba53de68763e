(* Conflict-aware parallel execution: partitioner unit tests, the
   watermark and duplicate-reply-cache bounds, and the serial/parallel
   equivalence property — any notify arrival order and any execute-pool
   size must produce the same ledger, KV state and client responses as
   strict serial execution. *)

module Engine = Rcc_sim.Engine
module Cpu = Rcc_sim.Cpu
module Costs = Rcc_sim.Costs
module Batch = Rcc_messages.Batch
module Msg = Rcc_messages.Msg
module Exec = Rcc_replica.Exec
module Conflict = Rcc_replica.Conflict
module Acceptance = Rcc_replica.Acceptance
module Metrics = Rcc_replica.Metrics
module Txn = Rcc_workload.Txn

let check = Alcotest.check

let keychain = Rcc_crypto.Keychain.create ~seed:7 ~n:4 ~clients:256

let mk_batch ~id ~client txns =
  Batch.create ~id ~client ~txns:(Array.of_list txns)
    ~secret:(Rcc_crypto.Keychain.client_secret keychain client)

let acc ~instance ~round batch =
  {
    Acceptance.instance;
    round;
    batch;
    cert = [ 0; 1; 2 ];
    speculative = false;
    history = "";
  }

let w k = { Txn.key = k; op = Txn.Write k }
let r k = { Txn.key = k; op = Txn.Read }

let item ~round ~rank ~instance batch =
  { Conflict.round; rank; acc = acc ~instance ~round batch }

(* --- oracle: the pairwise scan ------------------------------------------ *)

(* The definition [Conflict.partition] must agree with, written the
   direct way: compare every pair of batches in the window. *)

(* Common elements of two ascending, deduplicated key arrays. *)
let intersect_count (a : int array) (b : int array) =
  let i = ref 0 and j = ref 0 and hits = ref 0 in
  while !i < Array.length a && !j < Array.length b do
    if a.(!i) < b.(!j) then incr i
    else if a.(!i) > b.(!j) then incr j
    else begin
      incr hits;
      incr i;
      incr j
    end
  done;
  !hits

(* Conflicting key count between two batches: write/write and write/read
   overlaps order the pair; read/read sharing commutes and is free. *)
let overlap a b =
  let ka = Batch.key_sets a and kb = Batch.key_sets b in
  intersect_count ka.Batch.wset kb.Batch.wset
  + intersect_count ka.Batch.wset kb.Batch.rset
  + intersect_count ka.Batch.rset kb.Batch.wset

let duplicates a b =
  (not (Batch.is_null a))
  && (not (Batch.is_null b))
  && String.equal a.Batch.digest b.Batch.digest

(* Groups as ((round, rank) members, txns, conflict_keys), ordered by
   first member: union every overlapping or duplicate pair, then sum each
   component's pairwise overlaps. *)
let oracle_partition (items : Conflict.item array) =
  let n = Array.length items in
  let batch i = items.(i).Conflict.acc.Acceptance.batch in
  let comp = Array.init n (fun i -> i) in
  let rec root i = if comp.(i) = i then i else root comp.(i) in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      if overlap (batch i) (batch j) > 0 || duplicates (batch i) (batch j)
      then begin
        let ri = root i and rj = root j in
        comp.(max ri rj) <- min ri rj
      end
    done
  done;
  List.filter_map
    (fun r ->
      if root r <> r then None
      else
        let mem = List.filter (fun i -> root i = r) (List.init n Fun.id) in
        let keys = ref 0 in
        List.iter
          (fun i ->
            List.iter
              (fun j ->
                if i < j then keys := !keys + overlap (batch i) (batch j))
              mem)
          mem;
        Some
          ( List.map
              (fun i -> (items.(i).Conflict.round, items.(i).Conflict.rank))
              mem,
            List.fold_left
              (fun t i -> t + Batch.txn_count (batch i))
              0 mem,
            !keys ))
    (List.init n Fun.id)

let flatten_groups groups =
  List.map
    (fun (g : Conflict.group) ->
      ( List.map
          (fun it -> (it.Conflict.round, it.Conflict.rank))
          g.Conflict.members,
        g.Conflict.txns,
        g.Conflict.conflict_keys ))
    groups

(* --- partitioner units ------------------------------------------------- *)

let test_overlap () =
  let a = mk_batch ~id:0 ~client:0 [ w 1; w 2 ] in
  let b = mk_batch ~id:1 ~client:1 [ w 2; w 3 ] in
  check Alcotest.int "write/write overlap" 1 (overlap a b);
  let c = mk_batch ~id:2 ~client:2 [ r 1; r 9 ] in
  check Alcotest.int "write/read overlap" 1 (overlap a c);
  check Alcotest.int "read/write overlap" 1 (overlap c a);
  let d = mk_batch ~id:3 ~client:3 [ r 1; r 9 ] in
  check Alcotest.int "read/read sharing is free" 0 (overlap c d);
  let e = mk_batch ~id:4 ~client:4 [ w 7 ] in
  check Alcotest.int "disjoint" 0 (overlap a e)

let test_partition_disjoint () =
  let items =
    Array.init 4 (fun i ->
        item ~round:0 ~rank:i ~instance:i
          (mk_batch ~id:i ~client:i [ w (10 * i); w ((10 * i) + 1) ]))
  in
  let groups = Conflict.partition items in
  check Alcotest.int "disjoint batches stay singletons" 4 (List.length groups);
  List.iteri
    (fun i g ->
      check Alcotest.int "singleton" 1 (List.length g.Conflict.members);
      check Alcotest.int "group order = first member order" i
        (List.hd g.Conflict.members).Conflict.rank;
      check Alcotest.int "no conflict keys" 0 g.Conflict.conflict_keys)
    groups

let test_partition_transitive () =
  (* A{1} ~ B{1,2} ~ C{2}: one group even though A and C are disjoint. *)
  let a = mk_batch ~id:0 ~client:0 [ w 1 ] in
  let b = mk_batch ~id:1 ~client:1 [ w 1; w 2 ] in
  let c = mk_batch ~id:2 ~client:2 [ w 2 ] in
  let d = mk_batch ~id:3 ~client:3 [ w 99 ] in
  let items =
    [|
      item ~round:0 ~rank:0 ~instance:0 a;
      item ~round:0 ~rank:1 ~instance:1 b;
      item ~round:0 ~rank:2 ~instance:2 c;
      item ~round:0 ~rank:3 ~instance:3 d;
    |]
  in
  match Conflict.partition items with
  | [ g1; g2 ] ->
      check Alcotest.int "transitive group has 3 members" 3
        (List.length g1.Conflict.members);
      check (Alcotest.list Alcotest.int) "members keep (round, rank) order"
        [ 0; 1; 2 ]
        (List.map (fun it -> it.Conflict.rank) g1.Conflict.members);
      check Alcotest.int "glued by 2 overlapping keys" 2 g1.Conflict.conflict_keys;
      check Alcotest.int "bystander stays alone" 1
        (List.length g2.Conflict.members)
  | gs -> Alcotest.failf "expected 2 groups, got %d" (List.length gs)

let test_partition_duplicates () =
  (* Identical non-null digests (a re-ordered duplicate) must serialize
     even with no key overlap at all (here: read-only). *)
  let txns = [ r 5 ] in
  let a = mk_batch ~id:0 ~client:9 txns in
  let b = mk_batch ~id:1 ~client:9 txns in
  check Alcotest.int "read-only duplicates share no conflicting keys" 0
    (overlap a b);
  let items =
    [| item ~round:0 ~rank:0 ~instance:0 a; item ~round:1 ~rank:0 ~instance:0 b |]
  in
  (match Conflict.partition items with
  | [ g ] ->
      check Alcotest.int "duplicates merged" 2 (List.length g.Conflict.members)
  | gs -> Alcotest.failf "expected 1 group, got %d" (List.length gs));
  (* Null batches all share digest "" but must NOT merge on it. *)
  let items =
    [|
      item ~round:0 ~rank:0 ~instance:0 (Batch.null ~round:0);
      item ~round:1 ~rank:0 ~instance:0 (Batch.null ~round:1);
    |]
  in
  check Alcotest.int "null batches never merge as duplicates" 2
    (List.length (Conflict.partition items))

let test_partition_cross_round () =
  (* Conflicts across rounds of a window merge; group takes the earliest
     member as its representative so ordering stays deterministic. *)
  let items =
    [|
      item ~round:3 ~rank:0 ~instance:0 (mk_batch ~id:0 ~client:0 [ w 1 ]);
      item ~round:3 ~rank:1 ~instance:1 (mk_batch ~id:1 ~client:1 [ w 50 ]);
      item ~round:4 ~rank:0 ~instance:0 (mk_batch ~id:2 ~client:2 [ r 1 ]);
      item ~round:4 ~rank:1 ~instance:1 (mk_batch ~id:3 ~client:3 [ w 60 ]);
    |]
  in
  let groups = Conflict.partition items in
  check Alcotest.int "3 groups" 3 (List.length groups);
  let first = List.hd groups in
  check (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int))
    "w1/r1 merged across rounds, ordered by (round, rank)"
    [ (3, 0); (4, 0) ]
    (List.map
       (fun it -> (it.Conflict.round, it.Conflict.rank))
       first.Conflict.members)

let test_total_keys () =
  let items =
    [|
      item ~round:0 ~rank:0 ~instance:0 (mk_batch ~id:0 ~client:0 [ w 1; w 1; r 2 ]);
      item ~round:0 ~rank:1 ~instance:1 (mk_batch ~id:1 ~client:1 [ r 9 ]);
    |]
  in
  (* dedup: {1}w {2}r + {9}r = 3 *)
  check Alcotest.int "total keys deduped" 3 (Conflict.total_keys items)

(* --- partition = oracle --------------------------------------------------- *)

(* One batch of a generated window: a null batch, a repeat of an earlier
   batch's transactions (so of its digest), or (key, op) transactions. *)
type batch_spec = Null | Dup of int | Txns of (int * [ `R | `W | `RW ]) list

let show_spec = function
  | Null -> "null"
  | Dup k -> Printf.sprintf "dup %d" k
  | Txns t ->
      String.concat " "
        (List.map
           (fun (k, op) ->
             (match op with `R -> "r" | `W -> "w" | `RW -> "rw")
             ^ string_of_int k)
           t)

(* Windows of 1-48 batches over 8-64 keys, so key sets overlap heavily
   and groups span many batches; [z] batches per round. *)
let gen_window =
  let open QCheck2.Gen in
  let* keys = int_range 8 64 in
  let* z = int_range 1 6 in
  let txn = pair (int_bound (keys - 1)) (oneofl [ `R; `W; `RW ]) in
  let spec =
    frequency
      [
        (1, return Null);
        (1, map (fun k -> Dup k) nat);
        (8, map (fun t -> Txns t) (list_size (int_range 1 6) txn));
      ]
  in
  let* specs = list_size (int_range 1 48) spec in
  return (z, specs)

let print_window (z, specs) =
  Printf.sprintf "z=%d [%s]" z (String.concat "; " (List.map show_spec specs))

let window_items (z, specs) =
  let earlier = ref [] in
  Array.of_list
    (List.mapi
       (fun i spec ->
         let round = i / z and rank = i mod z in
         let batch txns = mk_batch ~id:i ~client:(i mod 256) txns in
         let b =
           match spec with
           | Null -> Batch.null ~round
           | Dup k -> (
               match !earlier with
               | [] -> batch [ r 0 ]
               | l -> batch (List.nth l (k mod List.length l)))
           | Txns t ->
               let txns =
                 List.concat_map
                   (fun (k, op) ->
                     match op with
                     | `R -> [ r k ]
                     | `W -> [ w k ]
                     | `RW -> [ r k; w k ])
                   t
               in
               earlier := txns :: !earlier;
               batch txns
         in
         item ~round ~rank ~instance:rank b)
       specs)

let partition_oracle_test =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:300 ~print:print_window
       ~name:"conflict: partition = pairwise oracle (groups, order, txns, keys)"
       gen_window
       (fun window ->
         let items = window_items window in
         flatten_groups (Conflict.partition items) = oracle_partition items))

(* --- exec harness ------------------------------------------------------ *)

type outcome = {
  o_head : string;
  o_rounds : int;
  o_state : string;
  o_txns : int;
  o_responses : (int * int * string) list;  (* sorted (client, round, digest) *)
  o_boundaries : (int * string * string) list;  (* captured (seq, head, kv) *)
}

let captured exec =
  List.map
    (fun (b : Rcc_storage.Snapshot.boundary) ->
      (b.b_seq, b.b_head, Lazy.force b.b_kv_digest))
    (Exec.boundaries exec)

(* Drive a bare execute stage with a synthetic workload: [batches.(r).(i)]
   ordered by instance [i] in round [r], notified in [order], engine run
   to quiescence. *)
let run_exec ~checkpoint_interval ~sched_kind ~z ~batches ~order =
  let engine = Engine.create () in
  let server = Cpu.server engine ~name:"exec" () in
  let sched =
    match sched_kind with
    | `Serial -> Exec.Serial
    | `Parallel (threads, window) ->
        Exec.Parallel
          { pool = Cpu.pool engine ~name:"exec-pool" ~size:threads (); window }
  in
  let store = Rcc_storage.Kv_store.create () in
  Rcc_storage.Kv_store.init_records store ~count:64;
  let primaries = List.init z (fun i -> i) in
  let ledger = Rcc_storage.Ledger.create ~primaries in
  let txn_table = Rcc_storage.Txn_table.create ~z in
  let metrics = Metrics.create ~n:1 ~instances:z ~warmup:0 () in
  let responses = ref [] in
  let respond client msg =
    match msg with
    | Msg.Response { round; result_digest; _ } ->
        responses := (client, round, result_digest) :: !responses
    | _ -> ()
  in
  let exec =
    Exec.create ~engine ~costs:Costs.default ~server ~z ~self:0 ~store ~ledger
      ~txn_table ~current_primaries:(fun () -> primaries)
      ~respond ~metrics ~sched ~checkpoint_interval ()
  in
  List.iter
    (fun (round, i) -> Exec.notify exec (acc ~instance:i ~round batches.(round).(i)))
    order;
  Engine.run engine ~until:max_int;
  {
    o_head = Rcc_storage.Ledger.head_hash ledger;
    o_rounds = Rcc_storage.Ledger.length ledger;
    o_state = Rcc_storage.Kv_store.state_digest store;
    o_txns = Exec.executed_txns exec;
    o_responses = List.sort compare !responses;
    o_boundaries = captured exec;
  }

(* Synthetic workload: [rounds] x [z] batches; key range controls the
   conflict rate (small range = heavy conflicts, forcing multi-member
   groups). Occasional null batches and cross-round duplicates exercise
   the hole-filling and §3.1 duplicate-suppression paths. *)
let gen_batches rng ~rounds ~z ~key_range ~conflict_free =
  let id = ref 0 in
  Array.init rounds (fun round ->
      Array.init z (fun i ->
          incr id;
          let slot = (round * z) + i in
          if (not conflict_free) && Random.State.int rng 10 = 0 then
            Batch.null ~round
          else
            let ntxns = 1 + Random.State.int rng 3 in
            let txns =
              List.init ntxns (fun t ->
                  let key =
                    if conflict_free then (slot * 8) + t
                    else Random.State.int rng key_range
                  in
                  if Random.State.int rng 3 = 0 then r key else w key)
            in
            mk_batch ~id:!id ~client:(slot mod 256) txns))

let shuffle rng l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done;
  Array.to_list a

let equivalence_prop ~conflict_free (seed, threads, window) =
  let rng = Random.State.make [| seed |] in
  let z = 1 + Random.State.int rng 4 in
  let rounds = 1 + Random.State.int rng 10 in
  let key_range = 4 + Random.State.int rng 12 in
  let batches = gen_batches rng ~rounds ~z ~key_range ~conflict_free in
  let slots =
    List.concat_map
      (fun round -> List.init z (fun i -> (round, i)))
      (List.init rounds (fun r -> r))
  in
  (* Boundaries every 4 or 8 rounds, or none: parallel windows must end
     on them and capture exactly serial's (seq, head, kv). *)
  let checkpoint_interval = seed mod 3 in
  let run_exec = run_exec ~checkpoint_interval in
  let reference = run_exec ~sched_kind:`Serial ~z ~batches ~order:slots in
  let same label o =
    if
      o.o_head <> reference.o_head
      || o.o_rounds <> reference.o_rounds
      || o.o_state <> reference.o_state
      || o.o_txns <> reference.o_txns
      || o.o_responses <> reference.o_responses
      || o.o_boundaries <> reference.o_boundaries
    then
      QCheck2.Test.fail_reportf
        "%s diverged from serial: rounds %d vs %d, txns %d vs %d, head %s vs %s"
        label o.o_rounds reference.o_rounds o.o_txns reference.o_txns
        (String.sub (Rcc_common.Bytes_util.hex o.o_head) 0 12)
        (String.sub (Rcc_common.Bytes_util.hex reference.o_head) 0 12)
  in
  (* Serial, shuffled arrivals: gathering is order-insensitive. *)
  same "serial/shuffled"
    (run_exec ~sched_kind:`Serial ~z ~batches ~order:(shuffle rng slots));
  (* Parallel, in-order and shuffled arrivals. *)
  same "parallel/in-order"
    (run_exec ~sched_kind:(`Parallel (threads, window)) ~z ~batches ~order:slots);
  same "parallel/shuffled"
    (run_exec ~sched_kind:(`Parallel (threads, window)) ~z ~batches
       ~order:(shuffle rng slots));
  true

let equivalence_test ~name ~conflict_free =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:30 ~name
       QCheck2.Gen.(
         triple (int_range 0 1_000_000) (int_range 1 8) (int_range 1 8))
       (equivalence_prop ~conflict_free))

(* --- speculative rollback ---------------------------------------------- *)

(* Fork/heal runner: execute the [fork] ordering end to end, roll
   instance [x] back to [frontier] (the view change installing a
   different ordering above it), feed instance [x]'s replacement batches
   from [final], and run to quiescence again. Other instances' rounds
   above the frontier re-execute from the exec layer's own uncommitted
   window — the caller re-notifies nothing for them. *)
let run_fork_heal ~checkpoint_interval ~sched_kind ~z ~fork ~final ~frontier
    ~x =
  let rounds = Array.length fork in
  let engine = Engine.create () in
  let server = Cpu.server engine ~name:"exec" () in
  let sched =
    match sched_kind with
    | `Serial -> Exec.Serial
    | `Parallel (threads, window) ->
        Exec.Parallel
          { pool = Cpu.pool engine ~name:"exec-pool" ~size:threads (); window }
  in
  let store = Rcc_storage.Kv_store.create () in
  Rcc_storage.Kv_store.init_records store ~count:64;
  let primaries = List.init z (fun i -> i) in
  let ledger = Rcc_storage.Ledger.create ~primaries in
  let exec =
    Exec.create ~engine ~costs:Costs.default ~server ~z ~self:0 ~store ~ledger
      ~txn_table:(Rcc_storage.Txn_table.create ~z)
      ~current_primaries:(fun () -> primaries)
      ~respond:(fun _ _ -> ())
      ~metrics:(Metrics.create ~n:1 ~instances:z ~warmup:0 ())
      ~sched ~checkpoint_interval ()
  in
  for round = 0 to rounds - 1 do
    for i = 0 to z - 1 do
      Exec.notify exec (acc ~instance:i ~round fork.(round).(i))
    done
  done;
  (* Finite horizon: [run] advances the clock to [until] once the queue
     drains, and phase 2 below must still be able to schedule work at
     [now + cost] without overflowing. *)
  Engine.run engine ~until:(Engine.of_seconds 3600.);
  Exec.rollback_to exec ~frontier ~instance:x;
  for round = frontier to rounds - 1 do
    Exec.notify exec (acc ~instance:x ~round final.(round).(x))
  done;
  Engine.run engine ~until:max_int;
  {
    o_head = Rcc_storage.Ledger.head_hash ledger;
    o_rounds = Rcc_storage.Ledger.length ledger;
    o_state = Rcc_storage.Kv_store.state_digest store;
    o_txns = Exec.executed_txns exec;
    o_responses = [];
    o_boundaries = captured exec;
  }

(* Execute -> rollback -> re-execute must leave exactly the state of
   executing the final ordering directly: same ledger head and length,
   same KV digest, same net executed-txn count — in serial AND parallel
   mode. This is the tentpole invariant of the speculative-rollback
   path: a healed fork is indistinguishable from never having forked —
   down to the checkpoint boundaries captured, which a rollback below
   them must drop and re-execution capture afresh. *)
let rollback_equivalence_prop (seed, threads, window) =
  let rng = Random.State.make [| seed |] in
  let z = 1 + Random.State.int rng 3 in
  let rounds = 2 + Random.State.int rng 8 in
  let key_range = 4 + Random.State.int rng 12 in
  let fork = gen_batches rng ~rounds ~z ~key_range ~conflict_free:false in
  let repl = gen_batches rng ~rounds ~z ~key_range ~conflict_free:false in
  let frontier = Random.State.int rng (rounds + 1) in
  let x = Random.State.int rng z in
  (* The final ordering: the fork's agreed prefix, instance [x]'s slots
     replaced from [frontier] up. *)
  let final =
    Array.mapi
      (fun round row ->
        Array.mapi
          (fun i b -> if round >= frontier && i = x then repl.(round).(i) else b)
          row)
      fork
  in
  let slots =
    List.concat_map
      (fun round -> List.init z (fun i -> (round, i)))
      (List.init rounds (fun r -> r))
  in
  let checkpoint_interval = seed mod 3 in
  let same label (healed : outcome) (direct : outcome) =
    if
      healed.o_head <> direct.o_head
      || healed.o_rounds <> direct.o_rounds
      || healed.o_state <> direct.o_state
      || healed.o_txns <> direct.o_txns
      || healed.o_boundaries <> direct.o_boundaries
    then
      QCheck2.Test.fail_reportf
        "%s: rollback/re-execute diverged from direct execution (frontier %d, \
         instance %d): rounds %d vs %d, txns %d vs %d, head %s vs %s, kv %s \
         vs %s"
        label frontier x healed.o_rounds direct.o_rounds healed.o_txns
        direct.o_txns
        (String.sub (Rcc_common.Bytes_util.hex healed.o_head) 0 12)
        (String.sub (Rcc_common.Bytes_util.hex direct.o_head) 0 12)
        (String.sub (Rcc_common.Bytes_util.hex healed.o_state) 0 12)
        (String.sub (Rcc_common.Bytes_util.hex direct.o_state) 0 12)
  in
  let direct_serial =
    run_exec ~checkpoint_interval ~sched_kind:`Serial ~z ~batches:final
      ~order:slots
  in
  same "serial"
    (run_fork_heal ~checkpoint_interval ~sched_kind:`Serial ~z ~fork ~final
       ~frontier ~x)
    direct_serial;
  same "parallel"
    (run_fork_heal ~checkpoint_interval
       ~sched_kind:(`Parallel (threads, window))
       ~z ~fork ~final ~frontier ~x)
    { direct_serial with o_responses = [] };
  true

let rollback_equivalence_test =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:30
       ~name:"rollback + re-execute = direct execution (serial and parallel)"
       QCheck2.Gen.(
         triple (int_range 0 1_000_000) (int_range 1 8) (int_range 1 8))
       rollback_equivalence_prop)

(* A bare execute stage whose replies are stamped with the virtual time
   they leave at. *)
type timed = {
  t_engine : Engine.t;
  t_exec : Exec.t;
  t_store : Rcc_storage.Kv_store.t;
  t_ledger : Rcc_storage.Ledger.t;
  replies : (int * int) list ref;  (* (client, time), newest first *)
}

let timed_exec ?(parallel = false) ?(checkpoint_interval = 0) ~z () =
  let engine = Engine.create () in
  let server = Cpu.server engine ~name:"exec" () in
  let sched =
    if parallel then
      Exec.Parallel
        { pool = Cpu.pool engine ~name:"exec-pool" ~size:2 (); window = 4 }
    else Exec.Serial
  in
  let store = Rcc_storage.Kv_store.create () in
  Rcc_storage.Kv_store.init_records store ~count:64;
  let primaries = List.init z Fun.id in
  let ledger = Rcc_storage.Ledger.create ~primaries in
  let replies = ref [] in
  let exec =
    Exec.create ~engine ~costs:Costs.default ~server ~z ~self:0 ~store ~ledger
      ~txn_table:(Rcc_storage.Txn_table.create ~z)
      ~current_primaries:(fun () -> primaries)
      ~respond:(fun client _ ->
        replies := (client, Engine.now engine) :: !replies)
      ~metrics:(Metrics.create ~n:1 ~instances:z ~warmup:0 ())
      ~sched ~checkpoint_interval ()
  in
  { t_engine = engine; t_exec = exec; t_store = store; t_ledger = ledger;
    replies }

(* --- watermark --------------------------------------------------------- *)

let test_watermark () =
  let { t_engine = engine; t_exec = exec; _ } = timed_exec ~z:2 () in
  check Alcotest.int "empty: next_round - 1" (-1) (Exec.max_pending_round exec);
  let put round i =
    Exec.notify exec
      (acc ~instance:i ~round (mk_batch ~id:((round * 2) + i) ~client:0 [ w 1 ]))
  in
  put 5 0;
  put 3 1;
  check Alcotest.int "watermark tracks the highest buffered round" 5
    (Exec.max_pending_round exec);
  (* Complete rounds 0..1 and drain them. *)
  for round = 0 to 1 do
    put round 0;
    put round 1
  done;
  Engine.run engine ~until:max_int;
  check Alcotest.int "executed prefix" 2 (Exec.next_round exec);
  check Alcotest.int "watermark survives execution" 5
    (Exec.max_pending_round exec);
  (* A snapshot install past everything collapses it to next_round - 1. *)
  let donor = Rcc_storage.Ledger.create ~primaries:[ 0; 1 ] in
  for round = 0 to 8 do
    Rcc_storage.Ledger.append_exn donor
      {
        Rcc_storage.Block.round;
        prev_hash = Rcc_storage.Ledger.head_hash donor;
        proofs = [];
        primaries = [ 0; 1 ];
        clients = [];
      }
  done;
  Exec.install_snapshot exec
    {
      Rcc_storage.Snapshot.seq = 9;
      blocks = Rcc_storage.Ledger.prefix donor ~upto:9;
      kv = None;
      replied = [];
    };
  check Alcotest.int "install drops stale rounds" 8 (Exec.max_pending_round exec)

(* --- duplicate-reply cache GC ------------------------------------------ *)

let test_replied_gc () =
  let { t_engine = engine; t_exec = exec; _ } = timed_exec ~z:2 () in
  (* 4 rounds x 2 instances, distinct clients: 8 cache entries. *)
  for round = 0 to 3 do
    for i = 0 to 1 do
      let client = (round * 2) + i in
      Exec.notify exec
        (acc ~instance:i ~round (mk_batch ~id:client ~client [ w client ]))
    done
  done;
  Engine.run engine ~until:max_int;
  let total () = Array.fold_left ( + ) 0 (Exec.replied_retained exec) in
  check Alcotest.int "all replies retained before any checkpoint" 8 (total ());
  check (Alcotest.list Alcotest.int) "per-instance split" [ 4; 4 ]
    (Array.to_list (Exec.replied_retained exec));
  (* One instance stabilizing is not enough: the floor is the min. *)
  Exec.on_stable exec ~instance:0 ~seq:3;
  check Alcotest.int "floor waits for every instance" 8 (total ());
  Exec.on_stable exec ~instance:1 ~seq:2;
  check Alcotest.int "entries below min stable evicted" 4 (total ());
  check Alcotest.int "evicted counted" 4 (Exec.replied_evicted exec);
  (* Regressing or repeating a frontier never un-evicts. *)
  Exec.on_stable exec ~instance:1 ~seq:1;
  Exec.on_stable exec ~instance:1 ~seq:2;
  check Alcotest.int "monotone" 4 (total ())

(* A retransmission can be ordered again after the stable floor passed
   its first execution and evicted the cached reply: it must still not
   execute twice, in either mode. *)
let test_evicted_duplicate_not_reexecuted () =
  List.iter
    (fun parallel ->
      let { t_engine = engine; t_exec = exec; _ } = timed_exec ~parallel ~z:1 () in
      let retransmitted = mk_batch ~id:7 ~client:3 [ w 1; w 2 ] in
      Exec.notify exec (acc ~instance:0 ~round:0 retransmitted);
      Engine.run engine ~until:(Engine.of_seconds 1.);
      Exec.on_stable exec ~instance:0 ~seq:1;
      check Alcotest.int "first execution's reply evicted" 1
        (Exec.replied_evicted exec);
      Exec.notify exec (acc ~instance:0 ~round:1 retransmitted);
      Exec.notify exec
        (acc ~instance:0 ~round:2 (mk_batch ~id:9 ~client:3 [ w 3 ]));
      Engine.run engine ~until:(Engine.of_seconds 2.);
      check Alcotest.int "all three rounds committed" 3 (Exec.next_round exec);
      check Alcotest.int "duplicate skipped, the client's next batch ran" 3
        (Exec.executed_txns exec))
    [ false; true ]

(* --- serial member completions ------------------------------------------ *)

(* Round [round] of [z] batches: instance [i] runs [i + 1] txns for
   client [round * z + i], and every member writes key 0, so the members
   depend on one another. *)
let member_round ~z round =
  Array.init z (fun i ->
      let client = (round * z) + i in
      mk_batch ~id:client ~client
        (List.init (i + 1) (fun t -> w (if t = 0 then 0 else client + t))))

let notify_round fx ~round row =
  Array.iteri
    (fun instance b -> Exec.notify fx.t_exec (acc ~instance ~round b))
    row

let c = Costs.default

(* Instance [i]'s member cost ([i + 1] txns, not speculative). *)
let member_ns i =
  c.Costs.exec_batch_overhead + ((i + 1) * c.Costs.txn_exec)
  + c.Costs.response_create

let block_hash_ns = Costs.hash_cost c 256

(* Members 0..i of a round, the default (instance) replay order. *)
let through i = List.fold_left ( + ) 0 (List.init (i + 1) member_ns)

let round_ns ~z = through (z - 1) + block_hash_ns

let reply_clients fx = List.rev_map fst !(fx.replies)

(* Two queued rounds: round 1's reservation starts where round 0's whole
   cost (members plus block hash) ends, and within each round member k's
   reply leaves at the start plus the costs of members 0..k. *)
let test_serial_reply_times () =
  let z = 3 in
  let fx = timed_exec ~z () in
  notify_round fx ~round:0 (member_round ~z 0);
  notify_round fx ~round:1 (member_round ~z 1);
  Engine.run fx.t_engine ~until:(Engine.of_seconds 1.);
  let expected =
    List.concat_map
      (fun round ->
        List.init z (fun i -> ((round * z) + i, (round * round_ns ~z) + through i)))
      [ 0; 1 ]
  in
  check
    Alcotest.(list (pair int int))
    "each reply at its round's start plus its cumulative member cost"
    expected
    (List.rev !(fx.replies));
  check Alcotest.int "both rounds committed" 2
    (Rcc_storage.Ledger.length fx.t_ledger)

(* The parallel scheduler's replies still leave at the window's commits.
   Pinned from the scheduler before serial rounds completed member by
   member; the parallel path must not move. *)
let test_parallel_reply_times () =
  let z = 3 in
  let fx = timed_exec ~parallel:true ~z () in
  notify_round fx ~round:0 (member_round ~z 0);
  notify_round fx ~round:1 (member_round ~z 1);
  Engine.run fx.t_engine ~until:(Engine.of_seconds 1.);
  check
    Alcotest.(list (pair int int))
    "reply times unchanged"
    [ (0, 62_700); (1, 62_700); (2, 62_700); (3, 125_400); (4, 125_400);
      (5, 125_400) ]
    (List.rev !(fx.replies))

(* A rollback between two members of a round: the fenced members send no
   reply, the KV state is back at the pre-round state, and the round
   re-executes to exactly the state of an uninterrupted run. *)
let test_serial_rollback_mid_round () =
  let z = 3 in
  let row = member_round ~z 0 in
  let direct = timed_exec ~z () in
  notify_round direct ~round:0 row;
  Engine.run direct.t_engine ~until:(Engine.of_seconds 1.);
  let fx = timed_exec ~z () in
  let pre = Rcc_storage.Kv_store.state_digest fx.t_store in
  notify_round fx ~round:0 row;
  Engine.run fx.t_engine ~until:(through 0);
  check Alcotest.int "member 0 executed" 1 (Exec.executed_members fx.t_exec);
  check Alcotest.(list int) "member 0 replied" [ 0 ] (reply_clients fx);
  Exec.rollback_to fx.t_exec ~frontier:1 ~instance:(z - 1);
  check Alcotest.int "nothing in flight" 0 (Exec.executed_members fx.t_exec);
  check Alcotest.string "KV state back before the round" pre
    (Rcc_storage.Kv_store.state_digest fx.t_store);
  (* The re-submitted round queues behind the fenced reservation. *)
  Engine.run fx.t_engine ~until:(round_ns ~z);
  check Alcotest.(list int) "fenced members sent no reply" [ 0 ]
    (reply_clients fx);
  Engine.run fx.t_engine ~until:(Engine.of_seconds 1.);
  check
    Alcotest.(list (pair int int))
    "re-execution replies at its own reservation"
    ((0, through 0) :: List.init z (fun i -> (i, round_ns ~z + through i)))
    (List.rev !(fx.replies));
  check Alcotest.string "KV state = uninterrupted run"
    (Rcc_storage.Kv_store.state_digest direct.t_store)
    (Rcc_storage.Kv_store.state_digest fx.t_store);
  check Alcotest.string "ledger head = uninterrupted run"
    (Rcc_storage.Ledger.head_hash direct.t_ledger)
    (Rcc_storage.Ledger.head_hash fx.t_ledger);
  check Alcotest.int "executed once, net" 6 (Exec.executed_txns fx.t_exec)

(* A snapshot install covering the round in flight skips its remaining
   members: no more replies, no KV writes on top of the installed state,
   no block appended over the installed chain; the next round runs. *)
let test_serial_install_mid_round () =
  let z = 3 in
  let fx = timed_exec ~z () in
  notify_round fx ~round:0 (member_round ~z 0);
  Engine.run fx.t_engine ~until:(through 0);
  let donor = Rcc_storage.Ledger.create ~primaries:(List.init z Fun.id) in
  Rcc_storage.Ledger.append_exn donor
    {
      Rcc_storage.Block.round = 0;
      prev_hash = Rcc_storage.Ledger.head_hash donor;
      proofs = [];
      primaries = List.init z Fun.id;
      clients = [];
    };
  Exec.install_snapshot fx.t_exec
    {
      Rcc_storage.Snapshot.seq = 1;
      blocks = Rcc_storage.Ledger.prefix donor ~upto:1;
      kv = Some [| (0, 7, 1) |];
      replied = [];
    };
  let installed = Rcc_storage.Kv_store.state_digest fx.t_store in
  Engine.run fx.t_engine ~until:(Engine.of_seconds 1.);
  check Alcotest.(list int) "remaining members sent no reply" [ 0 ]
    (reply_clients fx);
  check Alcotest.string "installed KV state untouched" installed
    (Rcc_storage.Kv_store.state_digest fx.t_store);
  check Alcotest.string "installed chain kept"
    (Rcc_storage.Ledger.head_hash donor)
    (Rcc_storage.Ledger.head_hash fx.t_ledger);
  check Alcotest.int "nothing in flight" 0 (Exec.executed_members fx.t_exec);
  check Alcotest.int "the superseded round did not commit" 0
    (Exec.executed_rounds fx.t_exec);
  notify_round fx ~round:1 (member_round ~z 1);
  Engine.run fx.t_engine ~until:(Engine.of_seconds 2.);
  check Alcotest.int "the next round commits" 2
    (Rcc_storage.Ledger.length fx.t_ledger);
  check Alcotest.(list int) "and replies" [ 0; 3; 4; 5 ] (reply_clients fx)

(* Boundaries every 4 rounds (checkpoint interval 1) over 12 queued
   rounds: each capture runs as its round commits, with no member of the
   next round executed. *)
let test_serial_boundary_settled () =
  let z = 3 in
  let fx = timed_exec ~checkpoint_interval:1 ~z () in
  let captures = ref [] in
  Exec.set_persist fx.t_exec
    {
      Exec.p_round = (fun ~round:_ _ -> ());
      p_rollback = (fun ~frontier:_ -> ());
      p_stable = (fun ~floor:_ -> ());
      p_snapshot =
        (fun b ~blocks:_ ->
          captures :=
            ( b.Rcc_storage.Snapshot.b_seq,
              Rcc_storage.Ledger.length fx.t_ledger,
              Exec.executed_members fx.t_exec )
            :: !captures);
    };
  for round = 0 to 11 do
    notify_round fx ~round (member_round ~z round)
  done;
  Engine.run fx.t_engine ~until:(Engine.of_seconds 1.);
  check
    Alcotest.(list (triple int int int))
    "(seq, ledger length, members in flight) at each capture"
    [ (4, 4, 0); (8, 8, 0); (12, 12, 0) ]
    (List.rev !captures)

let suite =
  ( "exec_parallel",
    [
      Alcotest.test_case "conflict: overlap counting" `Quick test_overlap;
      Alcotest.test_case "conflict: disjoint partition" `Quick
        test_partition_disjoint;
      Alcotest.test_case "conflict: transitive merge" `Quick
        test_partition_transitive;
      Alcotest.test_case "conflict: duplicate digests" `Quick
        test_partition_duplicates;
      Alcotest.test_case "conflict: cross-round window" `Quick
        test_partition_cross_round;
      Alcotest.test_case "conflict: total keys" `Quick test_total_keys;
      partition_oracle_test;
      Alcotest.test_case "watermark: max_pending_round" `Quick test_watermark;
      Alcotest.test_case "replied cache: checkpoint GC" `Quick test_replied_gc;
      Alcotest.test_case "replied cache: evicted duplicate not re-executed"
        `Quick test_evicted_duplicate_not_reexecuted;
      equivalence_test
        ~name:"parallel = serial (conflict-free workloads, any order/threads)"
        ~conflict_free:true;
      equivalence_test
        ~name:"parallel = serial (conflicting workloads, any order/threads)"
        ~conflict_free:false;
      rollback_equivalence_test;
      Alcotest.test_case "serial: replies at cumulative member cost" `Quick
        test_serial_reply_times;
      Alcotest.test_case "parallel: reply times unchanged" `Quick
        test_parallel_reply_times;
      Alcotest.test_case "serial: rollback between members" `Quick
        test_serial_rollback_mid_round;
      Alcotest.test_case "serial: install mid-round skips the rest" `Quick
        test_serial_install_mid_round;
      Alcotest.test_case "serial: no capture with a round in flight" `Quick
        test_serial_boundary_settled;
    ] )
