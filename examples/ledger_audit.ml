(* Auditing the blockchain after a run: validate the hash chain, check
   that all replicas agree block-by-block, inspect the per-round proof
   structure, archive a round marker through the wire codec, and ship the
   chain in a state-transfer snapshot that is re-verified from genesis.

     dune exec examples/ledger_audit.exe
*)

module Config = Rcc_runtime.Config
module Cluster = Rcc_runtime.Cluster
module Ledger = Rcc_storage.Ledger
module Block = Rcc_storage.Block
module Txn_table = Rcc_storage.Txn_table
module Snapshot = Rcc_storage.Snapshot
module Msg = Rcc_messages.Msg
module Codec = Rcc_messages.Codec

let () =
  let n = 4 in
  let cfg =
    Config.make ~protocol:Config.MultiP ~n ~batch_size:20 ~clients:40
      ~records:10_000
      ~duration:(Rcc_sim.Engine.of_seconds 0.5)
      ~warmup:(Rcc_sim.Engine.of_seconds 0.1)
      ()
  in
  let cluster = Cluster.build cfg in
  let _report = Cluster.run cluster in

  Printf.printf "== ledger audit (MultiP, n=%d) ==\n\n" n;

  (* 1. Hash-chain validation on every replica. *)
  for r = 0 to n - 1 do
    let ledger = Cluster.ledger cluster r in
    let verdict =
      match Ledger.validate ledger with Ok () -> "valid" | Error e -> e
    in
    Printf.printf "replica %d: %5d blocks, chain %s\n" r (Ledger.length ledger)
      verdict
  done;

  (* 2. Cross-replica agreement over the common prefix. *)
  let common =
    let lengths = List.init n (fun r -> Ledger.length (Cluster.ledger cluster r)) in
    List.fold_left min max_int lengths
  in
  let divergent = ref 0 in
  for round = 0 to common - 1 do
    let h r = Block.hash (Option.get (Ledger.get (Cluster.ledger cluster r) round)) in
    for r = 1 to n - 1 do
      if not (String.equal (h 0) (h r)) then incr divergent
    done
  done;
  Printf.printf "\ncommon prefix: %d rounds; divergent blocks: %d\n" common !divergent;

  (* 3. Inspect one block's proof structure. *)
  let sample = common / 2 in
  (match Ledger.get (Cluster.ledger cluster 0) sample with
  | Some block ->
      Printf.printf "\nblock %d: %d instance proofs, primaries [%s], clients [%s]\n"
        sample
        (List.length block.Block.proofs)
        (String.concat ";" (List.map string_of_int block.Block.primaries))
        (String.concat ";" (List.map string_of_int block.Block.clients))
  | None -> ());

  (* 4. The txn side table indexed by round (§6: payloads live outside the
     chain). *)
  let table = Cluster.txn_table cluster 0 in
  Printf.printf "\ntxn table: %d rounds, %d transactions recorded\n"
    (Txn_table.rounds table) (Txn_table.total_txns table);
  List.iter
    (fun e ->
      Printf.printf "  round %d instance %d client %d: %d txns\n"
        e.Txn_table.round e.Txn_table.instance e.Txn_table.client
        e.Txn_table.txn_count)
    (Txn_table.find table ~round:sample);

  (* 5. Archive a round through the wire codec, as an audit pipeline
     would, and prove it round-trips. *)
  let archived =
    Codec.encode
      (Msg.Contract_request { round = sample; instance = 0 })
  in
  (match Codec.decode archived with
  | Ok (Msg.Contract_request { round; _ }) ->
      Printf.printf "\narchived round marker round-trips: round=%d (%d bytes)\n"
        round (String.length archived)
  | Ok _ | Error _ -> Printf.printf "\narchive round-trip FAILED\n");

  (* 6. Ship the whole chain as state transfer does, in a snapshot blob,
     and verify it cold, re-walking every hash link from genesis. *)
  let ledger0 = Cluster.ledger cluster 0 in
  let seq = Ledger.length ledger0 in
  let blob =
    Snapshot.encode
      {
        Snapshot.seq;
        blocks = Ledger.prefix ledger0 ~upto:seq;
        kv = None;
        replied = [];
      }
  in
  let verified =
    Result.bind (Snapshot.decode blob) (Snapshot.verify ~primaries:[ 0; 1 ])
  in
  (match verified with
  | Ok head ->
      Printf.printf
        "\nshipped %d blocks as a snapshot (%d bytes), re-verified from genesis: %b\n"
        seq (String.length blob)
        (String.equal head (Ledger.head_hash ledger0))
  | Error e -> Printf.printf "\nverify FAILED: %s\n" e);
  Printf.printf "\naudit complete.\n"
