(* State-transfer tests: snapshot codec and verification, the manager's
   probe/fetch/install state machine against stub hooks (donor timeout
   failover, corrupt-donor rejection), install cache invalidation, and a
   cluster-level partition/heal run asserting the lagging replica
   converges through a snapshot rather than replay. *)

module Engine = Rcc_sim.Engine
module Msg = Rcc_messages.Msg
module Block = Rcc_storage.Block
module Ledger = Rcc_storage.Ledger
module Kv = Rcc_storage.Kv_store
module Snapshot = Rcc_storage.Snapshot
module Batch = Rcc_messages.Batch
module Manager = Rcc_state_transfer.Manager
module Exec = Rcc_replica.Exec
module Journal = Rcc_journal.Journal
module Config = Rcc_runtime.Config
module Report = Rcc_runtime.Report
module Cluster = Rcc_runtime.Cluster
module Script = Rcc_chaos.Script
module Nemesis = Rcc_chaos.Nemesis
module Invariant = Rcc_chaos.Invariant

let check = Alcotest.check

let primaries = [ 0; 1 ]

let proof i =
  {
    Block.instance = i;
    batch_digest = Rcc_crypto.Sha256.digest (Printf.sprintf "batch-%d" i);
    certificate_digest = Rcc_crypto.Sha256.digest (Printf.sprintf "cert-%d" i);
  }

(* A valid [rounds]-block chain from the [primaries] genesis, with
   per-round proof digests so every block hashes distinctly. *)
let ledger_of ~rounds =
  let ledger = Ledger.create ~primaries in
  for round = 0 to rounds - 1 do
    let proofs =
      [
        { (proof 0) with
          Block.batch_digest =
            Rcc_crypto.Sha256.digest (Printf.sprintf "b0-%d" round);
        };
        proof 1;
      ]
    in
    Ledger.append_exn ledger
      {
        Block.round;
        prev_hash = Ledger.head_hash ledger;
        proofs;
        primaries;
        clients = [ round mod 7 ];
      }
  done;
  ledger

(* KV table with the dense YCSB records plus spill keys outside the
   dense range — both shapes must survive the snapshot roundtrip. *)
let store_with_spill () =
  let store = Kv.create () in
  Kv.init_records store ~count:50;
  Kv.write store ~key:3 ~value:77;
  Kv.write store ~key:9_999 ~value:1;
  Kv.write store ~key:123_456 ~value:42;
  store

let snapshot_of ~rounds =
  let ledger = ledger_of ~rounds in
  let store = store_with_spill () in
  {
    Snapshot.seq = rounds;
    blocks = Ledger.prefix ledger ~upto:rounds;
    kv = Some (Kv.entries store);
    replied = [ (4, Rcc_crypto.Sha256.digest "req", rounds - 1, "result") ];
  }

(* --- snapshot codec ----------------------------------------------------- *)

let test_snapshot_roundtrip () =
  let snap = snapshot_of ~rounds:12 in
  let head = Ledger.head_hash (ledger_of ~rounds:12) in
  match Snapshot.decode (Snapshot.encode snap) with
  | Error e -> Alcotest.failf "decode failed: %s" e
  | Ok got ->
      check Alcotest.int "seq" snap.Snapshot.seq got.Snapshot.seq;
      check Alcotest.int "blocks" 12 (Array.length got.Snapshot.blocks);
      check Alcotest.bool "kv preserved" true (snap.Snapshot.kv = got.Snapshot.kv);
      check Alcotest.bool "replied preserved" true
        (snap.Snapshot.replied = got.Snapshot.replied);
      check Alcotest.string "kv digest stable"
        (Snapshot.kv_digest snap.Snapshot.kv)
        (Snapshot.kv_digest got.Snapshot.kv);
      (match Snapshot.verify ~primaries got with
      | Ok h -> check Alcotest.string "verified head = chain head" head h
      | Error e -> Alcotest.failf "verify failed: %s" e)

let test_snapshot_roundtrip_unmaterialized () =
  let snap = { (snapshot_of ~rounds:8) with Snapshot.kv = None; replied = [] } in
  match Snapshot.decode (Snapshot.encode snap) with
  | Error e -> Alcotest.failf "decode failed: %s" e
  | Ok got ->
      check Alcotest.bool "kv none" true (got.Snapshot.kv = None);
      check Alcotest.string "kv digest empty" "" (Snapshot.kv_digest got.Snapshot.kv);
      check Alcotest.bool "verifies" true (Result.is_ok (Snapshot.verify ~primaries got))

(* Single-byte corruptions must either be caught before install — decoder
   rejection, chain break, or head/kv digest mismatch — or land only in
   fields the design explicitly leaves unattested: certificate digests
   and primaries (excluded from block identity because replicas
   legitimately hold different valid quorums) and the best-effort reply
   cache. Nothing that reaches agreed state may change. *)
let test_snapshot_corruption_rejected () =
  let snap = snapshot_of ~rounds:6 in
  let attested_head =
    match Snapshot.verify ~primaries snap with
    | Ok h -> h
    | Error e -> Alcotest.failf "pristine snapshot must verify: %s" e
  in
  let attested_kv = Snapshot.kv_digest snap.Snapshot.kv in
  let blob = Snapshot.encode snap in
  let step = max 1 (String.length blob / 97) in
  let pos = ref 0 in
  while !pos < String.length blob do
    let b = Bytes.of_string blob in
    Bytes.set b !pos (Char.chr (Char.code (Bytes.get b !pos) lxor 0x40));
    let attested_fields_intact (forged : Snapshot.t) =
      forged.Snapshot.seq = snap.Snapshot.seq
      && Array.length forged.Snapshot.blocks = Array.length snap.Snapshot.blocks
      && Array.for_all2
           (fun (f : Block.t) (o : Block.t) ->
             f.Block.round = o.Block.round
             && String.equal f.Block.prev_hash o.Block.prev_hash
             && f.Block.clients = o.Block.clients
             && List.length f.Block.proofs = List.length o.Block.proofs
             && List.for_all2
                  (fun (fp : Block.proof) (op : Block.proof) ->
                    fp.Block.instance = op.Block.instance
                    && String.equal fp.Block.batch_digest op.Block.batch_digest)
                  f.Block.proofs o.Block.proofs)
           forged.Snapshot.blocks snap.Snapshot.blocks
      && forged.Snapshot.kv = snap.Snapshot.kv
    in
    let ok =
      match Snapshot.decode (Bytes.unsafe_to_string b) with
      | Error _ -> true
      | Ok forged -> (
          match Snapshot.verify ~primaries forged with
          | Error _ -> true
          | Ok head ->
              if
                (not (String.equal head attested_head))
                || not
                     (String.equal
                        (Snapshot.kv_digest forged.Snapshot.kv)
                        attested_kv)
              then true (* caught by the requester's attested comparison *)
              else attested_fields_intact forged)
    in
    if not ok then
      Alcotest.failf "corruption at byte %d of %d reached attested state" !pos
        (String.length blob);
    pos := !pos + step
  done

(* --- manager state machine --------------------------------------------- *)

(* A requester manager wired to stub hooks: donors are simulated by
   feeding replies through [on_msg], sends are captured for inspection,
   and install lands in a real ledger + store so cache invalidation is
   exercised too. *)
type world = {
  mgr : Manager.t;
  engine : Engine.t;
  sent : (Rcc_common.Ids.replica_id option * Msg.t) list ref;
      (* (Some dst | None = broadcast, msg), newest first *)
  ledger : Ledger.t;
  store : Kv.t;
  executed : int ref;
  installed : int ref;
}

let donor_rounds = 32

(* checkpoint_interval 4 -> snapshot boundary every 16 rounds. *)
let interval = 4

let make_world ?(corrupt = ref false) ?(ledger = Ledger.create ~primaries)
    ?(boundaries = fun () -> []) () =
  let engine = Engine.create () in
  let sent = ref [] in
  let store = Kv.create () in
  let executed = ref (-1) in
  let installed = ref 0 in
  let hooks =
    {
      Manager.n = 4;
      f = 1;
      self = 3;
      engine;
      timeout = Engine.ms 100;
      checkpoint_interval = interval;
      materialized = true;
      primaries;
      send = (fun ~dst msg -> sent := (Some dst, msg) :: !sent);
      broadcast = (fun msg -> sent := (None, msg) :: !sent);
      boundaries;
      blocks_prefix = (fun ~upto -> Ledger.prefix ledger ~upto);
      replied_entries = (fun () -> []);
      executed_upto = (fun () -> !executed);
      attesters = (fun ~seq:_ -> []);
      corrupt_reply = (fun () -> !corrupt);
      install =
        (fun snap ~proof:_ ->
          Ledger.install ledger snap.Snapshot.blocks;
          (match snap.Snapshot.kv with
          | Some entries -> Kv.install store entries
          | None -> ());
          executed := snap.Snapshot.seq - 1;
          incr installed);
    }
  in
  { mgr = Manager.create hooks; engine; sent; ledger; store; executed; installed }

let advance w ms_ =
  let target = Engine.now w.engine + Engine.ms ms_ in
  Engine.schedule_at w.engine target (fun () -> ());
  Engine.run w.engine ~until:target

(* The donor's state all stub donors serve from. *)
let donor_snapshot () =
  let ledger = ledger_of ~rounds:donor_rounds in
  let store = store_with_spill () in
  ( {
      Snapshot.seq = donor_rounds;
      blocks = Ledger.prefix ledger ~upto:donor_rounds;
      kv = Some (Kv.entries store);
      replied = [];
    },
    Ledger.head_hash ledger )

let offer_from w ~src ~head ~kv_digest =
  Manager.on_msg w.mgr ~src
    (Msg.Snapshot_reply
       {
         sp_seq = donor_rounds;
         sp_head = head;
         sp_kv = kv_digest;
         sp_attesters = [];
         sp_payload = None;
       })

let full_reply_from w ~src blob ~head ~kv_digest =
  Manager.on_msg w.mgr ~src
    (Msg.Snapshot_reply
       {
         sp_seq = donor_rounds;
         sp_head = head;
         sp_kv = kv_digest;
         sp_attesters = [];
         sp_payload = Some blob;
       })

let fetch_target w =
  match !(w.sent) with
  | (Some dst, Msg.Snapshot_request { fetch = true; _ }) :: _ -> Some dst
  | _ -> None

(* Stall past the timeout, collect offers from f+1 donors, and return the
   donor the manager picked. *)
let stall_and_probe w ~head ~kv_digest =
  advance w 150;
  Manager.tick w.mgr;
  (match !(w.sent) with
  | (None, Msg.Snapshot_request { fetch = false; _ }) :: _ -> ()
  | _ -> Alcotest.fail "stall did not broadcast a probe");
  offer_from w ~src:0 ~head ~kv_digest;
  check Alcotest.bool "single offer not fetched yet" true (fetch_target w = None);
  offer_from w ~src:1 ~head ~kv_digest;
  match fetch_target w with
  | Some dst -> dst
  | None -> Alcotest.fail "f+1 matching offers did not start a fetch"

let test_manager_install_path () =
  let w = make_world () in
  let snap, head = donor_snapshot () in
  let kvd = Snapshot.kv_digest snap.Snapshot.kv in
  let donor = stall_and_probe w ~head ~kv_digest:kvd in
  check Alcotest.int "fetches from first offerer" 0 donor;
  full_reply_from w ~src:donor (Snapshot.encode snap) ~head ~kv_digest:kvd;
  check Alcotest.int "installed" 1 !(w.installed);
  check Alcotest.int "frontier jumped" (donor_rounds - 1) !(w.executed);
  check Alcotest.int "ledger replaced" donor_rounds (Ledger.length w.ledger);
  check Alcotest.string "ledger head = donor head" head (Ledger.head_hash w.ledger);
  check Alcotest.(option int) "kv spill key installed" (Some 42)
    (Kv.read w.store 123_456);
  let stats = Manager.stats w.mgr in
  check Alcotest.int "stats installs" 1 stats.Manager.installs;
  check Alcotest.int "stats rounds skipped" donor_rounds stats.Manager.rounds_skipped;
  check Alcotest.bool "bytes counted" true (stats.Manager.bytes_in > 0)

let test_manager_donor_timeout_failover () =
  let w = make_world () in
  let snap, head = donor_snapshot () in
  let kvd = Snapshot.kv_digest snap.Snapshot.kv in
  let first = stall_and_probe w ~head ~kv_digest:kvd in
  (* First donor never answers; the per-donor timeout must fail over to
     the second offerer, not re-probe from scratch. *)
  advance w 150;
  Manager.tick w.mgr;
  (match fetch_target w with
  | Some second ->
      check Alcotest.bool "failover donor differs" true (second <> first);
      full_reply_from w ~src:second (Snapshot.encode snap) ~head ~kv_digest:kvd
  | None -> Alcotest.fail "timeout did not fail over to the next donor");
  check Alcotest.int "installed after failover" 1 !(w.installed);
  let stats = Manager.stats w.mgr in
  check Alcotest.int "timeout counted as reject" 1 stats.Manager.rejects

let test_manager_rejects_corrupt_then_recovers () =
  let w = make_world () in
  let snap, head = donor_snapshot () in
  let kvd = Snapshot.kv_digest snap.Snapshot.kv in
  let blob = Snapshot.encode snap in
  let corrupt =
    let b = Bytes.of_string blob in
    let i = Bytes.length b / 2 in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0xff));
    Bytes.unsafe_to_string b
  in
  let first = stall_and_probe w ~head ~kv_digest:kvd in
  full_reply_from w ~src:first corrupt ~head ~kv_digest:kvd;
  check Alcotest.int "corrupt blob not installed" 0 !(w.installed);
  (match fetch_target w with
  | Some second ->
      check Alcotest.bool "failover donor differs" true (second <> first);
      full_reply_from w ~src:second blob ~head ~kv_digest:kvd
  | None -> Alcotest.fail "rejection did not fail over to the next donor");
  check Alcotest.int "honest blob installed" 1 !(w.installed);
  let stats = Manager.stats w.mgr in
  check Alcotest.int "one reject" 1 stats.Manager.rejects;
  check Alcotest.int "one install" 1 stats.Manager.installs

(* A donor whose boundary has rotated out of its captures answers the
   fetch at once with an empty payload, and the requester fails over to
   the next offerer on it instead of waiting out the per-donor timeout. *)
let test_manager_refused_fetch_fails_over () =
  let donor = make_world () in
  Manager.on_msg donor.mgr ~src:3
    (Msg.Snapshot_request { sr_seq = donor_rounds; fetch = true });
  let refusal =
    match !(donor.sent) with
    | [ (Some 3, (Msg.Snapshot_reply { sp_payload = Some ""; _ } as msg)) ] -> msg
    | _ -> Alcotest.fail "donor without the boundary did not refuse at once"
  in
  let w = make_world () in
  let snap, head = donor_snapshot () in
  let kvd = Snapshot.kv_digest snap.Snapshot.kv in
  let first = stall_and_probe w ~head ~kv_digest:kvd in
  Manager.on_msg w.mgr ~src:first refusal;
  (match fetch_target w with
  | Some second when second <> first ->
      full_reply_from w ~src:second (Snapshot.encode snap) ~head ~kv_digest:kvd
  | Some _ | None -> Alcotest.fail "refusal did not fail over to the next donor");
  check Alcotest.int "installed without waiting" 1 !(w.installed);
  check Alcotest.int "refusal counted as reject" 1
    (Manager.stats w.mgr).Manager.rejects

(* A forged head that f+1 colluding offerers agree on still cannot be
   installed: the blob's recomputed head won't match it (chain check), and
   a blob doctored to match would need a SHA-256 break. *)
let test_manager_rejects_head_mismatch () =
  let w = make_world () in
  let snap, _head = donor_snapshot () in
  let kvd = Snapshot.kv_digest snap.Snapshot.kv in
  let forged = Rcc_crypto.Sha256.digest "forged-head" in
  let donor = stall_and_probe w ~head:forged ~kv_digest:kvd in
  full_reply_from w ~src:donor (Snapshot.encode snap) ~head:forged ~kv_digest:kvd;
  check Alcotest.int "nothing installed" 0 !(w.installed);
  check Alcotest.int "rejected" 1 (Manager.stats w.mgr).Manager.rejects

(* --- donor side: captured boundaries ------------------------------------ *)

let keychain = Rcc_crypto.Keychain.create ~seed:5 ~n:4 ~clients:8

(* Instance [i]'s round-[round] batch: one write of [value] to a key of
   its own, so the two orderings below differ in KV state and digests. *)
let write_acc ~round ~instance ~value =
  let client = instance in
  {
    Rcc_replica.Acceptance.instance;
    round;
    batch =
      Batch.create ~id:((round * 2) + instance) ~client
        ~txns:[| { Rcc_workload.Txn.key = (round * 2) + instance; op = Write value } |]
        ~secret:(Rcc_crypto.Keychain.client_secret keychain client);
    cert = [ 0; 1; 2 ];
    speculative = false;
    history = "";
  }

(* Execute 8 rounds (boundaries at 4 and 8), roll instance 1 back to round
   2 and re-execute it with different batches. The rollback unwinds both
   boundaries; a donor must then offer and serve the re-executed state,
   never the captured-then-unwound one. *)
(* An execute stage with z = 2 over a 16-record store, capturing a
   boundary every 4 rounds (checkpoint interval 1). *)
let boundary_exec engine ~sched ~ledger ~store =
  Kv.init_records store ~count:16;
  Exec.create ~engine ~costs:Rcc_sim.Costs.default
    ~server:(Rcc_sim.Cpu.server engine ~name:"exec" ())
    ~z:2 ~self:0 ~store ~ledger
    ~txn_table:(Rcc_storage.Txn_table.create ~z:2)
    ~current_primaries:(fun () -> primaries)
    ~respond:(fun _ _ -> ())
    ~metrics:(Rcc_replica.Metrics.create ~n:1 ~instances:2 ~warmup:0 ())
    ~sched ~checkpoint_interval:1 ()

let boundary_seqs exec =
  List.map (fun (b : Snapshot.boundary) -> b.b_seq) (Exec.boundaries exec)

(* Offers advertise only the newest boundary, so the donor keeps the
   newest three: the older two still serve a fetch that raced up to two
   new captures, and nothing older is pinned. *)
let test_boundaries_keep_three () =
  let engine = Engine.create () in
  let ledger = Ledger.create ~primaries and store = Kv.create () in
  let exec = boundary_exec engine ~sched:Exec.Serial ~ledger ~store in
  for round = 0 to 15 do
    for instance = 0 to 1 do
      Exec.notify exec (write_acc ~round ~instance ~value:round)
    done
  done;
  Engine.run engine ~until:(Engine.of_seconds 1.);
  check Alcotest.int "executed" 16 (Ledger.length ledger);
  check (Alcotest.list Alcotest.int) "four captures keep three" [ 16; 12; 8 ]
    (boundary_seqs exec);
  let w = make_world ~ledger ~boundaries:(fun () -> Exec.boundaries exec) () in
  let served () =
    match !(w.sent) with
    | (Some 0, Msg.Snapshot_reply { sp_seq; sp_payload = Some blob; _ }) :: _ ->
        Some (sp_seq, blob)
    | _ -> None
  in
  Manager.on_msg w.mgr ~src:0 (Msg.Snapshot_request { sr_seq = 8; fetch = true });
  (match served () with
  | Some (8, blob) -> (
      match Snapshot.decode blob with
      | Ok snap ->
          check Alcotest.int "served snapshot seq" 8 snap.Snapshot.seq;
          check Alcotest.bool "served blob verifies" true
            (Result.is_ok (Snapshot.verify ~primaries snap))
      | Error e -> Alcotest.failf "decode: %s" e)
  | _ -> Alcotest.fail "the third-newest boundary was not served");
  w.sent := [];
  Manager.on_msg w.mgr ~src:0 (Msg.Snapshot_request { sr_seq = 4; fetch = true });
  (* Not served: refused at once with an empty payload. *)
  check Alcotest.bool "a rotated-out boundary is not served" true
    (served () = Some (4, ""))

let test_rollback_recaptures_boundaries () =
  List.iter
    (fun parallel ->
      let engine = Engine.create () in
      let sched =
        if parallel then
          Exec.Parallel
            { pool = Rcc_sim.Cpu.pool engine ~name:"pool" ~size:2 (); window = 8 }
        else Exec.Serial
      in
      let ledger = Ledger.create ~primaries in
      let store = Kv.create () in
      let exec = boundary_exec engine ~sched ~ledger ~store in
      for round = 0 to 7 do
        for instance = 0 to 1 do
          Exec.notify exec (write_acc ~round ~instance ~value:1)
        done
      done;
      Engine.run engine ~until:(Engine.of_seconds 1.);
      let unwound = Ledger.head_hash ledger in
      Exec.rollback_to exec ~frontier:2 ~instance:1;
      check (Alcotest.list Alcotest.int) "rollback drops unwound boundaries" []
        (boundary_seqs exec);
      for round = 2 to 7 do
        Exec.notify exec (write_acc ~round ~instance:1 ~value:99)
      done;
      Engine.run engine ~until:(Engine.of_seconds 2.);
      check Alcotest.int "re-executed" 8 (Ledger.length ledger);
      check (Alcotest.list Alcotest.int) "re-execution captures them again"
        [ 8; 4 ]
        (boundary_seqs exec);
      let head_at seq =
        match Snapshot.chain_head ~primaries (Ledger.prefix ledger ~upto:seq) with
        | Ok h -> h
        | Error e -> Alcotest.failf "chain: %s" e
      in
      check Alcotest.bool "the new ordering changed the head" false
        (String.equal unwound (head_at 8));
      let w = make_world ~ledger ~boundaries:(fun () -> Exec.boundaries exec) () in
      (* (seq, head, kv digest, payload) of the donor's last reply. *)
      let reply () =
        match !(w.sent) with
        | (Some 0, Msg.Snapshot_reply { sp_seq; sp_head; sp_kv; sp_payload; _ })
          :: _ ->
            (sp_seq, sp_head, sp_kv, sp_payload)
        | _ -> Alcotest.fail "donor did not reply"
      in
      Manager.on_msg w.mgr ~src:0 (Msg.Snapshot_request { sr_seq = 0; fetch = false });
      let seq, head, kv, _ = reply () in
      check Alcotest.int "offers the newest boundary" 8 seq;
      check Alcotest.string "offered head = new ledger head at seq"
        (Rcc_common.Bytes_util.hex (head_at 8))
        (Rcc_common.Bytes_util.hex head);
      check Alcotest.string "offered kv = re-executed state"
        (Snapshot.kv_digest (Some (Kv.entries store)))
        kv;
      Manager.on_msg w.mgr ~src:0 (Msg.Snapshot_request { sr_seq = 4; fetch = true });
      let _, head, _, payload = reply () in
      check Alcotest.string "served head = new ledger head at seq"
        (Rcc_common.Bytes_util.hex (head_at 4))
        (Rcc_common.Bytes_util.hex head);
      match Option.map Snapshot.decode payload with
      | Some (Ok snap) ->
          check Alcotest.bool "served blob chains to the served head" true
            (Snapshot.verify ~primaries snap = Ok head)
      | Some (Error e) -> Alcotest.failf "decode: %s" e
      | None -> Alcotest.fail "fetch served no payload")
    [ false; true ]

(* --- install cache invalidation (satellite: digest-after-install) ------ *)

let test_install_invalidates_caches () =
  (* Ledger head cache: force the lazy head to be computed for the short
     chain, then install a longer one — the cached value must not leak. *)
  let short = ledger_of ~rounds:4 and long = ledger_of ~rounds:9 in
  let target = Ledger.create ~primaries in
  Ledger.install target (Ledger.prefix short ~upto:4);
  let before = Ledger.head_hash target in
  check Alcotest.string "short head" (Ledger.head_hash short) before;
  Ledger.install target (Ledger.prefix long ~upto:9);
  check Alcotest.string "head recomputed after install"
    (Ledger.head_hash long) (Ledger.head_hash target);
  check Alcotest.bool "installed chain validates" true
    (Result.is_ok (Ledger.validate target))

(* --- cluster-level convergence ----------------------------------------- *)

(* Partition replica 3 for long enough that the cluster's frontier moves
   thousands of rounds — far past both the contract window and a snapshot
   boundary — then heal. Replay can't close that gap inside the run, so
   the assertions below prove the snapshot path: the report counts an
   install, and the healed replica's ledger prefix-agrees with a donor's
   and ends within one snapshot interval of it. *)
let test_cluster_partition_heal_transfer () =
  let duration = Engine.of_seconds 1.0 in
  let cfg =
    Config.make ~protocol:Config.MultiP ~n:4 ~batch_size:10 ~clients:24
      ~records:2_000 ~duration ~warmup:(duration / 4)
      ~replica_timeout:(Engine.ms 250) ~client_timeout:(Engine.ms 400)
      ~collusion_wait:(Engine.ms 150) ~seed:11 ()
  in
  let script =
    Script.
      [
        { at = duration / 10; action = Partition [ [ 3 ] ] };
        { at = duration * 6 / 10; action = Heal };
      ]
  in
  let cluster = Cluster.build cfg in
  let _nemesis = Nemesis.install cluster script in
  let report = Cluster.run cluster in
  (* Drain in-flight recovery the way the chaos runner does, then judge. *)
  Cluster.stop_clients cluster;
  let engine = Cluster.engine cluster in
  let step = duration / 20 in
  let rec drain at =
    if at <= duration * 2 && Invariant.quiesced cluster ~exclude:[] <> [] then begin
      Engine.run engine ~until:at;
      drain (at + step)
    end
  in
  drain (duration + step);
  check Alcotest.bool "no violations after drain" true
    (Invariant.quiesced cluster ~exclude:[] = []);
  check Alcotest.bool "snapshot installed" true (report.Report.snap_installs >= 1);
  check Alcotest.bool "install skipped >= 1000 rounds" true
    (report.Report.snap_rounds_skipped >= 1_000);
  check Alcotest.bool "payload bytes flowed" true
    (report.Report.snap_bytes_in > 0 && report.Report.snap_bytes_out > 0);
  let healed = Cluster.ledger cluster 3 and donor = Cluster.ledger cluster 0 in
  let lh = Ledger.length healed and ld = Ledger.length donor in
  check Alcotest.bool "healed replica caught up past the gap" true (lh >= 1_000);
  check Alcotest.bool "healed within one snapshot interval of donor" true
    (ld - lh < 512);
  let common = min lh ld in
  (match (Ledger.get healed (common - 1), Ledger.get donor (common - 1)) with
  | Some a, Some b ->
      check Alcotest.string "prefix agreement at common frontier"
        (Rcc_common.Bytes_util.hex (Block.hash b))
        (Rcc_common.Bytes_util.hex (Block.hash a))
  | _ -> Alcotest.fail "missing block at common frontier");
  (* Slot-log GC satellite: consensus memory stays bounded by checkpoint
     distance, not run length. *)
  Array.iter
    (fun (i : Report.instance_stats) ->
      check Alcotest.bool "retained slots bounded by checkpoint GC" true
        (i.Report.i_retained_slots < 2_048))
    report.Report.per_instance;
  check Alcotest.bool "run executed far more rounds than any slot log retains"
    true
    (report.Report.ledger_rounds > 4_000)

(* Fault-free MultiP with parallel execution, every replica materialized
   and journaling. Each replica's captured boundaries are sampled every
   2 simulated ms (the ring keeps only the newest few). Every replica
   must capture each boundary it crosses, all with the same (head, KV
   digest) — a window applying later rounds' writes before the boundary
   commit would make them differ — and its journal must persist each
   one. *)
let test_parallel_boundaries_agree () =
  let duration = Engine.of_seconds 0.3 in
  let interval = 32 in
  let cfg =
    {
      (Config.make ~protocol:Config.MultiP ~n:4 ~batch_size:10 ~clients:40
         ~records:5_000 ~duration ~warmup:(duration / 4)
         ~exec_mode:Config.Exec_parallel ~journal:true ~seed:3 ())
      with
      Config.checkpoint_interval = interval;
    }
  in
  let cluster = Cluster.build cfg in
  let engine = Cluster.engine cluster in
  let n = cfg.Config.n in
  let seen = Array.init n (fun _ -> Hashtbl.create 64) in
  let sample () =
    Array.iteri
      (fun r tbl ->
        List.iter
          (fun (b : Snapshot.boundary) ->
            Hashtbl.replace tbl b.b_seq
              ( Rcc_common.Bytes_util.hex b.b_head,
                Rcc_common.Bytes_util.hex (Lazy.force b.b_kv_digest) ))
          (Cluster.boundaries cluster r))
      seen
  in
  let rec poll () =
    sample ();
    Engine.schedule_after engine (Engine.ms 2) poll
  in
  Engine.schedule_after engine (Engine.ms 2) poll;
  ignore (Cluster.run cluster);
  Cluster.stop_clients cluster;
  Engine.run engine ~until:(duration + Engine.ms 20);
  sample ();
  let crossed r = Ledger.next_round (Cluster.ledger cluster r) / (4 * interval) in
  check Alcotest.bool "run crossed many boundaries" true (crossed 0 >= 10);
  for r = 0 to n - 1 do
    check Alcotest.int
      (Printf.sprintf "replica %d captured every boundary it crossed" r)
      (crossed r) (Hashtbl.length seen.(r));
    match Cluster.journal_of cluster r with
    | Some j ->
        check Alcotest.int
          (Printf.sprintf "replica %d journaled every boundary" r)
          (crossed r) (Journal.snapshots_written j)
    | None -> Alcotest.fail "journal off"
  done;
  Hashtbl.iter
    (fun seq v ->
      for r = 1 to n - 1 do
        match Hashtbl.find_opt seen.(r) seq with
        | Some v' ->
            check
              Alcotest.(pair string string)
              (Printf.sprintf "replica %d (head, kv) at boundary %d" r seq)
              v v'
        | None -> ()
      done)
    seen.(0)

let suite =
  ( "state_transfer",
    [
      Alcotest.test_case "snapshot roundtrip" `Quick test_snapshot_roundtrip;
      Alcotest.test_case "snapshot roundtrip (no kv)" `Quick
        test_snapshot_roundtrip_unmaterialized;
      Alcotest.test_case "snapshot corruption rejected" `Quick
        test_snapshot_corruption_rejected;
      Alcotest.test_case "manager install path" `Quick test_manager_install_path;
      Alcotest.test_case "manager donor timeout failover" `Quick
        test_manager_donor_timeout_failover;
      Alcotest.test_case "manager corrupt donor failover" `Quick
        test_manager_rejects_corrupt_then_recovers;
      Alcotest.test_case "manager head mismatch rejected" `Quick
        test_manager_rejects_head_mismatch;
      Alcotest.test_case "manager refused fetch fails over" `Quick
        test_manager_refused_fetch_fails_over;
      Alcotest.test_case "install invalidates caches" `Quick
        test_install_invalidates_caches;
      Alcotest.test_case "boundaries: four captures keep three" `Quick
        test_boundaries_keep_three;
      Alcotest.test_case "rollback re-captures boundaries donors serve" `Quick
        test_rollback_recaptures_boundaries;
      Alcotest.test_case "parallel exec: replicas capture identical boundaries"
        `Slow test_parallel_boundaries_agree;
      Alcotest.test_case "cluster partition-heal converges via snapshot" `Slow
        test_cluster_partition_heal_transfer;
    ] )
