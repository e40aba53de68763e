(* Microbenchmarks: one public function per layer, called in a loop on
   inputs shaped like the workloads' (100-txn batches, z = 6 instances,
   5400-byte pre-prepares). Reported per op as ns (median of five timed
   batches) and minor-heap words allocated. Words are the difference
   between 8 and 4 blocks, which cancels the measuring code's own
   allocation, so they repeat exactly. *)

module Engine = Rcc_sim.Engine
module Net = Rcc_sim.Net
module Heap = Rcc_common.Binary_heap
module Rng = Rcc_common.Rng
module Msg = Rcc_messages.Msg
module Batch = Rcc_messages.Batch
module Codec = Rcc_messages.Codec
module Sha256 = Rcc_crypto.Sha256
module Signature = Rcc_crypto.Signature
module Ycsb = Rcc_workload.Ycsb
module Txn = Rcc_workload.Txn
module Kv_store = Rcc_storage.Kv_store
module Ledger = Rcc_storage.Ledger
module Block = Rcc_storage.Block
module Snapshot = Rcc_storage.Snapshot
module Acceptance = Rcc_replica.Acceptance
module Conflict = Rcc_replica.Conflict
module Journal = Rcc_journal.Journal
module Sim_disk = Rcc_journal.Sim_disk

(* A benchmark is [ops] operations per block and a function running a
   given number of blocks. *)
type bench = { ops : int; blocks : int -> unit }

let measure ~min_batch_s b =
  let words c =
    let w0 = Sim_run.allocated_words () in
    b.blocks c;
    Sim_run.allocated_words () -. w0
  in
  b.blocks 1;
  (* Fixed block counts, so that the count is the same in every run. *)
  let words = (words 8 -. words 4) /. float_of_int (4 * b.ops) in
  let timed c =
    let t0 = Sim_run.now_s () in
    b.blocks c;
    Sim_run.now_s () -. t0
  in
  let rec calibrate c =
    if c >= 1 lsl 20 || timed c >= min_batch_s then c else calibrate (2 * c)
  in
  let c = calibrate 1 in
  let ns =
    Sim_run.median (List.init 5 (fun _ -> timed c)) *. 1e9 /. float_of_int (c * b.ops)
  in
  (ns, words)

let repeat c f =
  for _ = 1 to c do
    f ()
  done

let secret, public = Signature.keygen (Rng.create 3)
let primaries = List.init 6 Fun.id

let ycsb ?(records = 500_000) ?(theta = 0.9) seed =
  Ycsb.create ~records ~write_ratio:0.9 ~theta ~seed ()

let heap () =
  let n = 1024 in
  let h = Heap.create ~capacity:(2 * n) ~dummy:0 () in
  let prios = Array.init n (fun i -> (i * 7919) land 0xffff) in
  {
    ops = n;
    blocks =
      (fun c ->
        repeat c (fun () ->
            for i = 0 to n - 1 do
              Heap.push h ~priority:prios.(i) i
            done;
            while not (Heap.is_empty h) do
              ignore (Heap.pop_min_exn h)
            done));
  }

let engine () =
  let n = 1024 in
  let e = Engine.create () in
  let delays = Array.init n (fun i -> (i * 7919) land 0xffff) in
  let noop () = () in
  {
    ops = n;
    blocks =
      (fun c ->
        repeat c (fun () ->
            for i = 0 to n - 1 do
              Engine.schedule_after e delays.(i) noop
            done;
            Engine.run e ~until:(Engine.now e + 0x10000)));
  }

(* One block is a 15-destination broadcast of a 5400-byte message,
   delivered. *)
let net () =
  let e = Engine.create () in
  let net =
    Net.create e ~nodes:16 ~latency:(Engine.us 100) ~jitter:0 ~gbps:10.0
      ~rng:(Rng.create 7) ()
  in
  for i = 0 to 15 do
    Net.register net i (fun ~src:_ ~size:_ _ -> ())
  done;
  {
    ops = 15;
    blocks =
      (fun c ->
        repeat c (fun () ->
            for dst = 1 to 15 do
              Net.send net ~src:0 ~dst ~size:5400 ()
            done;
            Engine.run e ~until:(Engine.now e + Engine.ms 10)));
  }

let batch_of y id = Batch.create ~id ~client:id ~txns:(Ycsb.batch y ~size:100) ~secret

let codec () =
  let msg =
    Msg.Pre_prepare { instance = 0; view = 0; seq = 9; batch = batch_of (ycsb 1) 1 }
  in
  {
    ops = 1;
    blocks =
      (fun c ->
        repeat c (fun () ->
            match Codec.decode (Codec.encode msg) with
            | Ok _ -> ()
            | Error e -> failwith e));
  }

(* Two alternating txn arrays, so Batch's one-entry digest memo (keyed by
   array identity) misses as it does for every fresh client batch. *)
let batch_create () =
  let y = ycsb 2 in
  let txns = [| Ycsb.batch y ~size:100; Ycsb.batch y ~size:100 |] in
  {
    ops = 2;
    blocks =
      (fun c ->
        repeat c (fun () ->
            ignore (Batch.create ~id:1 ~client:1 ~txns:txns.(0) ~secret);
            ignore (Batch.create ~id:2 ~client:2 ~txns:txns.(1) ~secret)));
  }

let sha256 () =
  let s = String.init 5400 (fun i -> Char.chr (i land 0xff)) in
  {
    ops = 1;
    blocks = (fun c -> repeat c (fun () -> ignore (Sha256.digest s)));
  }

let verify () =
  let msg = Sha256.digest "rcc" in
  let sg = Signature.sign secret msg in
  {
    ops = 1;
    blocks =
      (fun c ->
        repeat c (fun () ->
            if not (Signature.verify public msg sg) then failwith "verify"));
  }

let ycsb_batch () =
  let y = ycsb 4 in
  {
    ops = 1;
    blocks = (fun c -> repeat c (fun () -> ignore (Ycsb.batch y ~size:100)));
  }

let apply_batch () =
  let y = ycsb 5 in
  let store = Kv_store.create () in
  Ycsb.init_store y store;
  let batches = Array.init 16 (fun _ -> Ycsb.batch y ~size:100) in
  let next = ref 0 in
  {
    ops = 1;
    blocks =
      (fun c ->
        repeat c (fun () ->
            let b = batches.(!next land 15) in
            incr next;
            Array.iter (fun t -> ignore (Txn.apply store t)) b));
  }

let acceptance y ~instance ~round =
  {
    Acceptance.instance;
    round;
    batch = batch_of y ((round * 6) + instance);
    cert = [];
    speculative = false;
    history = "";
  }

(* One scheduler window of parallel-lowconflict: 8 rounds of z = 6
   batches over 2M records at theta 0.3. *)
let partition () =
  let y = ycsb ~records:2_000_000 ~theta:0.3 6 in
  let items =
    Array.init 48 (fun i ->
        let round = i / 6 and rank = i mod 6 in
        { Conflict.round; rank; acc = acceptance y ~instance:rank ~round })
  in
  {
    ops = 1;
    blocks = (fun c -> repeat c (fun () -> ignore (Conflict.partition items)));
  }

let block ~round ~prev_hash =
  {
    Block.round;
    prev_hash;
    proofs =
      List.map
        (fun x ->
          {
            Block.instance = x;
            batch_digest = Sha256.digest (string_of_int ((round * 6) + x));
            certificate_digest = Sha256.digest (string_of_int x);
          })
        primaries;
    primaries;
    clients = primaries;
  }

(* One block is 256 appends to a fresh ledger; each append hashes the
   previous head, as execution does. *)
let ledger_append () =
  let blocks = Array.init 256 (fun round -> block ~round ~prev_hash:"") in
  {
    ops = 256;
    blocks =
      (fun c ->
        repeat c (fun () ->
            let l = Ledger.create ~primaries in
            Array.iter
              (fun b ->
                Ledger.append_exn l { b with Block.prev_hash = Ledger.head_hash l })
              blocks));
  }

(* A checkpoint at round 256 with 50 000 materialized records. *)
let snapshot_encode () =
  let l = Ledger.create ~primaries in
  for round = 0 to 255 do
    Ledger.append_exn l (block ~round ~prev_hash:(Ledger.head_hash l))
  done;
  let kv = Array.init 50_000 (fun k -> (k, k * 7, 1)) in
  let snap =
    {
      Snapshot.seq = 256;
      blocks = Ledger.prefix l ~upto:256;
      kv = Some kv;
      replied =
        List.init 120 (fun c -> (c, Sha256.digest (string_of_int c), 250, "r"));
    }
  in
  {
    ops = 1;
    blocks = (fun c -> repeat c (fun () -> ignore (Snapshot.encode snap)));
  }

(* One block journals 64 rounds of z = 6 acceptances on a fresh disk and
   runs the engine so the group-commit flushes complete. *)
let log_round () =
  let y = ycsb 8 in
  let rounds =
    Array.init 64 (fun round ->
        Array.init 6 (fun instance -> acceptance y ~instance ~round))
  in
  {
    ops = 64;
    blocks =
      (fun c ->
        repeat c (fun () ->
            let engine = Engine.create () in
            let j =
              Journal.attach ~engine ~costs:Rcc_sim.Costs.default
                ~disk:(Sim_disk.create ~seed:1) ~self:0 ()
            in
            Array.iteri
              (fun round accs -> Journal.log_round j ~round ~primaries accs)
              rounds;
            Engine.run engine ~until:(Engine.now engine + Engine.ms 10)));
  }

(* Names are the reported metric prefixes. *)
let all =
  [
    ("common.binary_heap.push_pop", heap);
    ("sim.engine.schedule_run", engine);
    ("sim.net.send", net);
    ("messages.codec.roundtrip", codec);
    ("messages.batch.create", batch_create);
    ("crypto.sha256.digest_5400B", sha256);
    ("crypto.signature.verify", verify);
    ("workload.ycsb.batch", ycsb_batch);
    ("workload.txn.apply_batch", apply_batch);
    ("replica.conflict.partition", partition);
    ("storage.ledger.append", ledger_append);
    ("storage.snapshot.encode", snapshot_encode);
    ("journal.log_round", log_round);
  ]

let run ~quick =
  let min_batch_s = if quick then 0.0005 else 0.02 in
  List.concat_map
    (fun (name, make) ->
      let ns, words = measure ~min_batch_s (make ()) in
      [ (name ^ ".ns", ns); (name ^ ".words", words) ])
    all
