open Rcc_common.Ids
module Engine = Rcc_sim.Engine
module Costs = Rcc_sim.Costs
module Cpu = Rcc_sim.Cpu
module Msg = Rcc_messages.Msg
module Batch = Rcc_messages.Batch
module Node = Rcc_replica.Node
module Exec = Rcc_replica.Exec
module Env = Rcc_replica.Instance_env
module Transfer = Rcc_state_transfer.Manager

type config = {
  n : int;
  f : int;
  z : int;
  self : replica_id;
  costs : Rcc_sim.Costs.t;
  timeout : Rcc_sim.Engine.time;
  collusion_wait : Rcc_sim.Engine.time;
  checkpoint_interval : int;
  unified : bool;
  recovery : Coordinator.recovery_mode;
  use_permutation : bool;
  exec_on_worker : bool;
  (* Parallel execution (conflict-aware scheduler). [parallel_exec =
     false] is the serial ablation, byte-identical to the historical
     execute thread. *)
  parallel_exec : bool;
  exec_threads : int;
  exec_window : int;
  sign_speculative : bool;
  records : int;
  materialize_state : bool;
  client_node_of : client_id -> int;
  byz : Rcc_replica.Byz.t;
  (* Durable write-ahead journal for this incarnation, attached over the
     replica's persistent [Sim_disk]; [None] = in-memory-only replica
     (the digest-gated default). *)
  journal : Rcc_journal.Journal.t option;
}

(* The protocol's instances, packed with the module that drives them. Only
   this field depends on the protocol; code that calls into it unpacks
   the module once, when it builds its closures. *)
type instances =
  | I :
      (module Rcc_replica.Instance_intf.S with type t = 'i) * 'i array
      -> instances

type t = {
  cfg : config;
  keychain : Rcc_crypto.Keychain.t;
  node : Node.t;
  instances : instances;
  exec : Exec.t;
  coordinator : Coordinator.t option;
  store : Rcc_storage.Kv_store.t;
  ledger : Rcc_storage.Ledger.t;
  txn_table : Rcc_storage.Txn_table.t;
  client_map : Client_map.t;
  transfer : Transfer.t;
  mutable false_blames_sent : bool;
  mutable halted : bool;
}

let config t = t.cfg
let exec t = t.exec
let journal t = t.cfg.journal
let coordinator t = t.coordinator
let store t = t.store
let ledger t = t.ledger
let txn_table t = t.txn_table
let transfer_stats t = Transfer.stats t.transfer

let retained_slots t x =
  let (I ((module P), instances)) = t.instances in
  P.retained_slots instances.(x)

let exec_utilization t ~since =
  Cpu.utilization (Node.exec_server t.node) ~since

let exec_pool_utilization t ~since =
  Option.map (fun pool -> Cpu.pool_utilization pool ~since)
    (Node.exec_pool t.node)

let worker_utilization t x ~since = Cpu.utilization (Node.worker t.node x) ~since

let current_primary t x =
  match t.coordinator with
  | Some c -> Coordinator.primary_of c x
  | None ->
      let (I ((module P), instances)) = t.instances in
      P.primary instances.(x)

(* Figure 12's false-alarm attack: on witnessing any view-change, a
   byzantine replica accuses the non-faulty primaries on its list, each
   exactly once. *)
let maybe_false_blame t coordinator =
  match t.cfg.byz.Rcc_replica.Byz.false_blame with
  | [] -> ()
  | targets ->
      if not t.false_blames_sent then begin
        t.false_blames_sent <- true;
        List.iter (fun blamed -> Coordinator.false_blame coordinator ~blamed)
          targets
      end

(* Messages carrying an out-of-range instance id (byzantine or stray
   standalone traffic) are routed to instance 0 rather than dropped. *)
let clamp_instance cfg instance = if instance < cfg.z then instance else 0

let install_route t =
  let (I ((module P), instances)) = t.instances in
  let cfg = t.cfg in
  let costs = Node.costs t.node in
  let exec_server = Node.exec_server t.node in
  let worker_of instance = Node.worker t.node (clamp_instance cfg instance) in
  let coordinator_cost (msg : Msg.t) =
    costs.Costs.worker_msg + costs.Costs.mac_verify
    + Costs.hash_cost costs (Msg.size msg)
  in
  (* RCC's recovery messages are the coordinator's, on the execute
     thread; protocol traffic goes to the worker of the instance it
     names. *)
  let to_coordinator c ~src ~ready msg =
    Cpu.submit_ready exec_server ~ready ~cost:(coordinator_cost msg) (fun () ->
        Coordinator.on_msg c ~src msg)
  in
  let to_instance ~src ~ready msg =
    let x =
      match Msg.instance_of msg with
      | Some instance -> clamp_instance cfg instance
      | None -> 0
    in
    Cpu.submit_ready (worker_of x) ~ready ~cost:(P.cost_of costs msg)
      (fun () -> P.handle instances.(x) ~src msg)
  in
  Node.set_route t.node (fun ~src ~ready msg ->
      match msg with
      | Msg.Client_request { instance; batch } -> begin
          let x = clamp_instance cfg instance in
          (* §3.1 request-duplication prevention: clients are partitioned
             over instances deterministically, so a request is only
             ordered by the instance the client currently maps to. *)
          let mapped =
            cfg.z = 1
            || Client_map.current_instance t.client_map batch.Batch.client = x
          in
          match Node.batchers t.node with
          | None -> ()
          | Some _ when cfg.byz.Rcc_replica.Byz.ignore_clients ->
              (* §3.6: a malicious primary starving its clients. *)
              ()
          | Some _ when not mapped -> ()
          | Some pool ->
              let batched =
                Cpu.pool_reserve pool ~ready
                  ~cost:(costs.Costs.batch_create + costs.Costs.sig_verify)
              in
              Cpu.submit_ready (worker_of x) ~ready:batched
                ~cost:costs.Costs.worker_msg (fun () ->
                  if Batch.verify batch ~public:(Rcc_crypto.Keychain.client_public t.keychain batch.Batch.client)
                  then P.submit_batch instances.(x) batch)
        end
      | Msg.View_change _ -> begin
          (* Standalone, a view change is the instance's own election. *)
          match t.coordinator with
          | Some c ->
              to_coordinator c ~src ~ready msg;
              maybe_false_blame t c
          | None -> to_instance ~src ~ready msg
        end
      | Msg.Contract _ | Msg.Contract_request _ | Msg.Contract_reply _
      | Msg.View_sync _ ->
          Option.iter (fun c -> to_coordinator c ~src ~ready msg) t.coordinator
      | Msg.Instance_change { client; instance } ->
          (* §3.6: accept the defection unless the instance is already
             at its adopted-client capacity (anti-flooding). *)
          if instance < cfg.z then
            ignore
              (Client_map.request_change t.client_map ~client ~target:instance)
      | Msg.Response _ | Msg.Local_commit _ ->
          (* Replica-to-client traffic; replicas ignore stray copies. *)
          ()
      | Msg.Snapshot_request _ | Msg.Snapshot_reply _ ->
          (* State transfer is the execute thread's concern: snapshots
             read and write the ledger / KV store, which protocol
             workers never touch. *)
          Cpu.submit_ready exec_server ~ready ~cost:(coordinator_cost msg)
            (fun () -> Transfer.on_msg t.transfer ~src msg)
      | Msg.Checkpoint { seq; _ } ->
          (* Passive gap detection: a checkpoint vote far past our
             execution frontier means the cluster moved on without us.
             The observation itself is a frontier comparison — free —
             so it rides the normal worker dispatch below. *)
          Transfer.observe_checkpoint t.transfer ~seq;
          to_instance ~src ~ready msg
      | Msg.Pre_prepare _ | Msg.Prepare _ | Msg.Commit _
      | Msg.New_view _ | Msg.Order_request _ | Msg.Commit_cert _
      | Msg.Hs_proposal _ | Msg.Hs_vote _ ->
          to_instance ~src ~ready msg)

(* Null-fill an instance that fell behind: from the execute stage's
   stalled round (past what it already proposed) up to the pipeline
   horizon the other instances reached, at most 64 rounds out, so it
   never throttles the round rate. Shared by the liveness monitor's idle
   fill and a finished takeover ([Env.null_fill]). *)
let null_fill exec ~proposed_upto submit =
  let round = Exec.next_round exec in
  let horizon = max round (min (Exec.max_pending_round exec) (round + 64)) in
  for r = max round (proposed_upto + 1) to horizon do
    submit (Batch.null ~round:r)
  done

(* The forged-contract attack on a reply's true window: each batch
   replaced by a null one, every other replica named as certifier. *)
let forge_entries cfg entries =
  let cert = List.filter (( <> ) cfg.self) (List.init cfg.n Fun.id) in
  List.map
    (fun (e : Msg.contract_entry) ->
      {
        e with
        Msg.ce_batch = Batch.null ~round:e.Msg.ce_round;
        ce_cert_replicas = cert;
      })
    entries

let create (module P : Rcc_replica.Instance_intf.S) ~engine ~net ~keychain
    ~metrics cfg =
  let node =
    Node.create ~engine ~net ~costs:cfg.costs ~self:cfg.self ~z:cfg.z
      ~has_batchers:true
      ?exec_pool_size:(if cfg.parallel_exec then Some cfg.exec_threads else None)
      ()
  in
  let store = Rcc_storage.Kv_store.create () in
  if cfg.materialize_state then
    Rcc_storage.Kv_store.init_records store ~count:cfg.records;
  let initial_primaries = List.init cfg.z (fun x -> x) in
  let ledger = Rcc_storage.Ledger.create ~primaries:initial_primaries in
  let txn_table = Rcc_storage.Txn_table.create ~z:cfg.z in
  let coordinator_ref = ref None in
  let primaries () =
    match !coordinator_ref with
    | Some c -> Coordinator.primaries c
    | None -> initial_primaries
  in
  let respond client msg =
    Node.send_direct node ~dst:(cfg.client_node_of client) msg
  in
  let reorder accs =
    if cfg.use_permutation && Array.length accs > 1 then begin
      let digests =
        Array.to_list
          (Array.map
             (fun (a : Rcc_replica.Acceptance.t) -> a.batch.Batch.digest)
             accs)
      in
      let order =
        Permutation.order_of_round ~digests ~len:(Array.length accs)
      in
      Array.map (fun i -> accs.(i)) order
    end
    else accs
  in
  let exec_server =
    if cfg.exec_on_worker then Node.worker node 0 else Node.exec_server node
  in
  let sched =
    match Node.exec_pool node with
    | Some pool when cfg.parallel_exec ->
        Exec.Parallel { pool; window = max 1 cfg.exec_window }
    | Some _ | None -> Exec.Serial
  in
  let exec =
    Exec.create ~engine ~costs:cfg.costs ~server:exec_server ~z:cfg.z
      ~self:cfg.self ~store ~ledger ~txn_table ~current_primaries:primaries
      ~respond ~metrics ~reorder ~materialize:cfg.materialize_state
      ~sign_speculative:cfg.sign_speculative ~sched
      ~checkpoint_interval:cfg.checkpoint_interval ()
  in
  (match cfg.journal with
  | Some j ->
      Exec.set_persist exec
        {
          Exec.p_round =
            (fun ~round ordered ->
              Rcc_journal.Journal.log_round j ~round
                ~primaries:(primaries ()) ordered);
          p_rollback =
            (fun ~frontier -> Rcc_journal.Journal.log_rollback j ~frontier);
          p_stable =
            (fun ~floor -> Rcc_journal.Journal.log_stable j ~floor);
          p_snapshot = Rcc_journal.Journal.write_snapshot j;
        }
  | None -> ());
  let instances =
    Array.init cfg.z (fun x ->
        let worker = Node.worker node x in
        let send, broadcast = Node.sender node ~worker in
        let env =
          {
            Env.n = cfg.n;
            f = cfg.f;
            z = cfg.z;
            instance = x;
            self = cfg.self;
            engine;
            costs = cfg.costs;
            timeout = cfg.timeout;
            checkpoint_interval = cfg.checkpoint_interval;
            send = (fun ?sign ~dst msg -> send ?sign ~dst msg);
            broadcast =
              (fun ?sign ?exclude msg -> broadcast ?sign ?exclude ~n:cfg.n msg);
            respond =
              (fun client msg ->
                send ~dst:(cfg.client_node_of client) msg);
            accept = (fun acceptance -> Exec.notify exec acceptance);
            on_stable = (fun ~seq -> Exec.on_stable exec ~instance:x ~seq);
            rollback =
              (fun ~frontier -> Exec.rollback_to exec ~frontier ~instance:x);
            null_fill = null_fill exec;
            report_failure =
              (fun ~announce ~round ~blamed ->
                match !coordinator_ref with
                | Some c ->
                    let announce =
                      if announce then Some (fun msg -> broadcast ~n:cfg.n msg)
                      else None
                    in
                    Coordinator.accuse ?announce c ~instance:x ~round ~blamed
                | None -> ());
            byz = cfg.byz;
            unified = cfg.unified;
          }
        in
        P.create (Env.instrument env))
  in
  let coordinator =
    if cfg.unified then begin
      let send, broadcast = Node.sender node ~worker:(Node.exec_server node) in
      let handles =
        Array.map
          (fun inst ->
            {
              Coordinator.h_set_primary =
                (fun r ~view -> P.set_primary inst r ~view);
              h_adopt =
                (fun ~round batch ~witnesses ->
                  P.adopt inst ~round batch ~cert:witnesses);
              h_answered =
                (fun ~src ~max_seen ~reported ->
                  P.on_contract_reply inst ~src ~max_seen ~reported);
              h_max_seen = (fun () -> P.max_seen inst);
              h_primary = (fun () -> P.primary inst);
            })
          instances
      in
      let c =
        Coordinator.create
          {
            Coordinator.n = cfg.n;
            f = cfg.f;
            z = cfg.z;
            self = cfg.self;
            collusion_wait = cfg.collusion_wait;
            recovery = cfg.recovery;
          }
          ~engine ~keychain ~handles ~exec ~metrics
          ~broadcast:(fun ?size msg -> broadcast ?size ~n:cfg.n msg)
          ~send:(fun ?size ~dst msg ->
            match msg with
            | Msg.Contract_reply r when cfg.byz.Rcc_replica.Byz.forge_contracts ->
                let forged =
                  Msg.Contract_reply
                    { r with entries = forge_entries cfg r.entries }
                in
                send ~size:(Msg.size forged) ~dst forged
            | _ -> send ?size ~dst msg)
      in
      coordinator_ref := Some c;
      Some c
    end
    else None
  in
  let transfer =
    let send, broadcast = Node.sender node ~worker:(Node.exec_server node) in
    let ckpt_log () = P.checkpoint_log instances.(0) in
    Transfer.create
      {
        Transfer.n = cfg.n;
        f = cfg.f;
        self = cfg.self;
        engine;
        timeout = cfg.timeout;
        checkpoint_interval = cfg.checkpoint_interval;
        materialized = cfg.materialize_state;
        primaries = initial_primaries;
        send = (fun ~dst msg -> send ~dst msg);
        broadcast = (fun msg -> broadcast ~n:cfg.n msg);
        boundaries = (fun () -> Exec.boundaries exec);
        blocks_prefix = (fun ~upto -> Rcc_storage.Ledger.prefix ledger ~upto);
        replied_entries = (fun () -> Exec.replied_entries exec);
        executed_upto = (fun () -> Exec.next_round exec - 1);
        attesters =
          (fun ~seq ->
            (* Instance 0's stable checkpoints stand in for the round's:
               all instances stabilize the same boundaries in lockstep,
               and the offer quorum re-checks every attester set against
               f+1 agreeing offerers anyway. *)
            let log = ckpt_log () in
            match Rcc_storage.Checkpoint_store.find log ~seq with
            | Some p -> p.Rcc_storage.Checkpoint_store.attesters
            | None -> (
                match Rcc_storage.Checkpoint_store.stable log with
                | Some p when p.Rcc_storage.Checkpoint_store.seq >= seq ->
                    p.Rcc_storage.Checkpoint_store.attesters
                | Some _ | None -> []));
        corrupt_reply = (fun () -> cfg.byz.Rcc_replica.Byz.corrupt_snapshot);
        install =
          (fun snap ~proof ->
            (* The execute stage's state first, then every instance's
               slot log. *)
            Exec.install_snapshot exec snap;
            Array.iter (fun inst -> P.fast_forward inst ~proof) instances);
      }
  in
  (match coordinator with
  | Some c ->
      Exec.set_on_executed exec (fun round ->
          Transfer.on_executed transfer ~round;
          Coordinator.on_round_executed c ~round)
  | None ->
      Exec.set_on_executed exec (fun round ->
          Transfer.on_executed transfer ~round));
  let t =
    {
      cfg;
      keychain;
      node;
      instances = I ((module P), instances);
      exec;
      coordinator;
      store;
      ledger;
      txn_table;
      (* Adopted-client cap per instance (§3.6 anti-flooding); generous
         relative to the simulated client populations. *)
      client_map = Client_map.create ~z:cfg.z ~cap_per_instance:4096;
      transfer;
      false_blames_sent = false;
      halted = false;
    }
  in
  install_route t;
  t

(* How often the liveness monitor looks, and how long the execute thread
   may stall on an instance this replica leads before it proposes a null
   batch there. *)
let heartbeat = Engine.ms 25

(* Round-lockstep liveness monitor. Execution waits for all z instances
   each round (§3.4.1), so an instance without traffic — an idle or
   client-ignoring primary, or a crashed one — would stall every
   replica. Primaries fill short stalls of their own instances with
   null batches; in unified mode a stall past the replica timeout goes
   to the coordinator ([Coordinator.on_stall]), which blames the missing
   instances' primaries and asks the peers for their rounds. *)
let monitor t =
  let (I ((module P), instances)) = t.instances in
  let cfg = t.cfg in
  let engine = Node.engine t.node in
  let last_round = ref (-1) in
  let last_change = ref 0 in
  (* 0, not [min_int]: [now - !last_exchange] must not overflow. A stall
     can only be detected after [timeout] of simulated time anyway. *)
  let last_exchange = ref 0 in
  let last_heartbeat = Array.make cfg.z (-1) in
  let _send, broadcast = Node.sender t.node ~worker:(Node.exec_server t.node) in
  let rec tick () =
    if t.halted then ()
    else begin
    let round = Exec.next_round t.exec in
    let now = Engine.now engine in
    Transfer.tick t.transfer;
    (match t.coordinator with
    | Some c ->
        if cfg.byz.Rcc_replica.Byz.forge_views then
          (* Forged-view attack: claim an inflated view with self as the
             new primary, backed by a fabricated f+1 certificate. The
             votes are signed with OUR key but attributed to other
             replicas, so verification under the claimed accusers' keys
             must fail at every honest coordinator. *)
          for x = 0 to cfg.z - 1 do
            let view = Coordinator.view_of c x + 5 in
            let blamed = current_primary t x in
            let cert =
              List.init (cfg.f + 1) (fun i ->
                  let bv_accuser = (cfg.self + 1 + i) mod cfg.n in
                  let bv_round = round in
                  let bv_sig =
                    Coordinator.sign_blame t.keychain ~signer:cfg.self
                      ~instance:x ~view:(view - 1) ~blamed ~round
                  in
                  { Msg.bv_accuser; bv_round; bv_sig })
            in
            broadcast ~n:cfg.n
              (Msg.View_sync
                 { instance = x; view; primary = cfg.self; kmal = []; cert })
          done
        else Coordinator.gossip_views c
    | None -> ());
    if round <> !last_round then begin
      last_round := round;
      last_change := now
    end
    else begin
      let stalled = now - !last_change in
      let missing = Exec.missing_instances t.exec ~round in
      if stalled > heartbeat then
        List.iter
          (fun x ->
            let inst = instances.(x) in
            let upto = P.proposed_upto inst in
            if
              current_primary t x = cfg.self
              && last_heartbeat.(x) < round
              && upto < round (* max_int opts a protocol out entirely *)
            then begin
              last_heartbeat.(x) <- round;
              (* The proposed_upto guard keeps in-flight rounds untouched. *)
              null_fill t.exec ~proposed_upto:upto (P.submit_batch inst)
            end)
          missing;
      match t.coordinator with
      | Some c when stalled > cfg.timeout && now - !last_exchange > cfg.timeout
        ->
          (* Escalate once per timeout period for as long as the stall
             lasts — NOT once per round. A round can stay stalled through
             a replacement (the replacement's own repropose can be lost
             to the same link fault that caused the stall), and then the
             new primary must be blamable for the same round or the
             instance wedges forever. Re-blaming is idempotent at the
             coordinator (accuser bitsets), and re-requesting contracts
             covers exchanges that fired while the peers were themselves
             mid-recovery and could only return a partial window. *)
          last_exchange := now;
          Coordinator.on_stall c ~round ~missing
      | Some _ | None -> ()
    end;
    Engine.schedule_after engine (max 1 (heartbeat / 2)) tick
    end
  in
  Engine.schedule_after engine heartbeat tick

let start t =
  let (I ((module P), instances)) = t.instances in
  Array.iter P.start instances;
  monitor t

(* Crash semantics for a restart-from-disk: the orphaned incarnation
   must go silent — its node drops deliveries and suppresses queued
   sends, the monitor stops rescheduling, and un-flushed journal
   records are lost (they were never durable). The persistent disk
   survives for the successor incarnation to recover from. *)
let halt t =
  t.halted <- true;
  Node.halt t.node;
  Option.iter Rcc_journal.Journal.halt t.cfg.journal

(* Restart-from-disk recovery, run on a freshly created builder before
   [start]: rebuild the execute stage from the newest verifiable
   snapshot plus the journal suffix, then advance every instance's slot
   log to the recovered frontier. Anything the disk could not prove is
   left behind the frontier; state transfer closes that gap once the
   replica is live. *)
let restore t =
  let (I ((module P), instances)) = t.instances in
  (* Regardless of what the disk proves, the successor must not resume
     sequencing on instances it leads: the lost incarnation may have
     assigned (and broadcast) rounds past the durable frontier, and
     re-using those numbers would equivocate. Resigning holds client
     batches until the ordinary view path re-establishes a primary
     through the state-exchange takeover. *)
  Array.iter P.resign_primary instances;
  match t.cfg.journal with
  | None -> None
  | Some j ->
      let r =
        Rcc_journal.Journal.recover ~engine:(Node.engine t.node)
          ~self:t.cfg.self
          ~disk:(Rcc_journal.Journal.disk j)
          ~exec:t.exec
          ~primaries:(List.init t.cfg.z (fun x -> x))
          ()
      in
      let frontier = r.Rcc_journal.Journal.r_frontier in
      if frontier > 0 then begin
        let proof =
          {
            Rcc_storage.Checkpoint_store.seq = frontier;
            state_digest =
              (if t.cfg.materialize_state then
                 Rcc_storage.Kv_store.state_digest t.store
               else "");
            attesters = [];
          }
        in
        Array.iter (fun inst -> P.fast_forward inst ~proof) instances
      end;
      Some r
