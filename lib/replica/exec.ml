module Engine = Rcc_sim.Engine
module Costs = Rcc_sim.Costs
module Msg = Rcc_messages.Msg
module Batch = Rcc_messages.Batch

type sched =
  | Serial
  | Parallel of { pool : Rcc_sim.Cpu.pool; window : int }

(* Durable-journal seam: the journal (when enabled) observes executed
   rounds in replay order, rollbacks, and stable-floor advances without
   this module depending on the storage layer above it. *)
type persist = {
  p_round : round:int -> Acceptance.t array -> unit;
      (* acceptances in deterministic replay order *)
  p_rollback : frontier:int -> unit;
      (* ledger truncated back to [frontier] *)
  p_stable : floor:int -> unit;
      (* cross-instance stable floor advanced *)
  p_snapshot :
    Rcc_storage.Snapshot.boundary -> blocks:Rcc_storage.Block.t array -> unit;
      (* a checkpoint boundary was captured *)
}

(* One round being replayed. [ordered] is the round's acceptances in the
   configured deterministic replay order; the reply arrays are filled by
   member execution (out of commit order in a parallel window) and read
   by the replies and the in-order commit. *)
type wround = {
  w_round : int;
  ordered : Acceptance.t array;
  reply_round : int array;
  reply_digest : string array;
  did_exec : bool array;  (* false = duplicate, replied from cache *)
  mutable ran : int;  (* members executed live so far *)
}

type window_state = {
  w_base : int;  (* rounds.(i).w_round = w_base + i *)
  rounds : wround array;
  mutable groups_left : int;
  gen : int;  (* rollback fence: stale generations skip themselves *)
}

type t = {
  engine : Engine.t;
  costs : Costs.t;
  server : Rcc_sim.Cpu.server;
  sched : sched;
  z : int;
  self : Rcc_common.Ids.replica_id;
  store : Rcc_storage.Kv_store.t;
  ledger : Rcc_storage.Ledger.t;
  txn_table : Rcc_storage.Txn_table.t;
  current_primaries : unit -> Rcc_common.Ids.replica_id list;
  respond : Rcc_common.Ids.client_id -> Msg.t -> unit;
  metrics : Metrics.t;
  reorder : Acceptance.t array -> Acceptance.t array;
  mutable on_executed : int -> unit;
  materialize : bool;
  sign_speculative : bool;
  pending : (int, Acceptance.t option array) Hashtbl.t;
  (* (client, batch digest) -> (round, result digest, instance, batch id)
     of the first execution: duplicate-ordered batches re-send the cached
     reply instead of re-executing (§3.1 request-duplication prevention).
     The instance tag feeds the per-instance retained-count stat. *)
  replied :
    (Rcc_common.Ids.client_id * string, int * string * int * int) Hashtbl.t;
  (* client -> newest batch id evicted from [replied]. A client issues one
     batch at a time with increasing ids, so every batch of it up to this
     id has executed; a retransmission ordered after its reply was evicted
     must still not execute twice. Evicted rounds are below the stable
     floor and never roll back, so this needs no undo. *)
  settled_ids : (Rcc_common.Ids.client_id, int) Hashtbl.t;
  mutable next_round : int;
  (* When the execution frontier last moved: the liveness monitor's stall
     clock. *)
  mutable moved_at : Engine.time;
  mutable executed_rounds : int;
  mutable executed_txns : int;
  (* Highest round ever notified — an O(1) watermark replacing the
     O(pending) fold over the buffer. Exact: every notified round is
     either still pending (<= high_water by construction), executed
     (< next_round), or dropped by a snapshot install (< next_round
     again), so max(high_water, next_round - 1) equals the max over
     pending U {next_round - 1}. *)
  mutable high_water : int;
  (* [install_horizon]: rounds below it were superseded by a snapshot
     install while queued or in flight; queued group members and commit
     jobs skip them. *)
  mutable install_horizon : int;
  mutable active : window_state option;
  mutable group_seq : int;
  (* Speculative-rollback state. [gen] fences in-flight rounds (bumped by
     [rollback_to]; serial member completions, group callbacks and
     commit jobs compare against it). [history] keeps each committed
     round's acceptances as they ran: contracts are built from it, and a
     rollback takes the unwound rounds back from it to re-buffer the
     surviving instances' batches; it never evicts a round at or above
     [evict_floor]. [uncommitted] tracks rounds whose members have begun
     executing but that have not committed yet: the serial round in
     flight, or a parallel window's rounds — [t.active] alone cannot
     serve, because [complete_window] clears it before the commit jobs
     run. *)
  mutable gen : int;
  history : Round_history.t;
  uncommitted : (int, wround) Hashtbl.t;
  (* Duplicate-reply cache bound: per-instance stable checkpoint seqs;
     entries whose first execution is behind min over instances are
     evicted (clients never replay a batch that old — checkpoint
     stability implies 2f+1 replicas answered it). *)
  stable : int array;
  mutable evict_floor : int;
  mutable replied_evicted : int;
  mutable persist : persist option;
  (* Checkpoint boundaries: one every [boundary_every] rounds (0 = none),
     the newest [boundary_capacity] captures kept newest first. *)
  boundary_every : int;
  mutable boundaries : Rcc_storage.Snapshot.boundary list;
}

(* Snapshot boundaries are sparser than checkpoint boundaries: capturing
   one copies the KV table, so doing it every checkpoint would tax the
   fault-free hot path for a state few peers will ever fetch. Offers
   advertise only the newest capture, but a requester fetches the seq
   f + 1 offers agreed on, and a donor can capture again before the
   fetch arrives: in the gated 4-replica MultiP chaos smoke a fetch came
   two captures after its offer, so three are kept. Each older capture
   would only pin its KV section. *)
let boundary_multiple = 4
let boundary_capacity = 3
let history_capacity = 16_384

let create ~engine ~costs ~server ~z ~self ~store ~ledger ~txn_table
    ~current_primaries ~respond ~metrics ?(reorder = fun a -> a)
    ?(on_executed = fun _ -> ()) ?(materialize = true)
    ?(sign_speculative = false) ?(sched = Serial) ?(checkpoint_interval = 0)
    () =
  (* Rollback needs per-round undo records for every KV write. *)
  if materialize then Rcc_storage.Kv_store.enable_journal store;
  {
    engine;
    costs;
    server;
    sched;
    z;
    self;
    store;
    ledger;
    txn_table;
    current_primaries;
    respond;
    metrics;
    reorder;
    on_executed;
    materialize;
    sign_speculative;
    pending = Hashtbl.create 256;
    replied = Hashtbl.create 256;
    settled_ids = Hashtbl.create 256;
    next_round = 0;
    moved_at = Engine.now engine;
    executed_rounds = 0;
    executed_txns = 0;
    high_water = -1;
    install_horizon = 0;
    active = None;
    group_seq = 0;
    gen = 0;
    history = Round_history.create ~z ~capacity:history_capacity;
    uncommitted = Hashtbl.create 16;
    stable = Array.make z 0;
    evict_floor = 0;
    replied_evicted = 0;
    persist = None;
    boundary_every = max 0 (boundary_multiple * checkpoint_interval);
    boundaries = [];
  }

let set_on_executed t f = t.on_executed <- f
let set_persist t p = t.persist <- Some p
let boundaries t = t.boundaries

(* A move of the frontier other than a round executing (which stamps
   [moved_at] in [commit_round]): a rollback's resume point, a snapshot's
   jump, journal replay. *)
let set_next_round t round =
  t.next_round <- round;
  t.moved_at <- Engine.now t.engine

let at_boundary t seq = t.boundary_every > 0 && seq mod t.boundary_every = 0

(* True when no round is mid-execution: no window in flight and every
   commit drained. A serial round leaves [uncommitted] as its last member
   commits, before the next round's first member can run; the parallel
   scheduler guarantees it at every boundary. *)
let settled t = t.active = None && Hashtbl.length t.uncommitted = 0

(* Duplicate-ordered: the batch's reply is cached, or its client already
   had a batch this new settled. *)
let executed_before t (batch : Batch.t) key =
  (not (Batch.is_null batch))
  && (Hashtbl.mem t.replied key
     ||
     match Hashtbl.find_opt t.settled_ids batch.Batch.client with
     | Some id -> batch.Batch.id <= id
     | None -> false)

(* The one checkpoint producer: once [round]'s block is appended and
   journaled, a round completing a boundary captures [(seq, head, KV,
   duplicate-reply cache)] for state transfer to serve and the journal
   to persist. The cache is read here, not when a donor serves: the
   stable floor may evict entries in between, and whether a re-ordered
   batch executes must not depend on when a peer asked. *)
let capture_boundary t ~round =
  let seq = round + 1 in
  if at_boundary t seq then begin
    assert (settled t);
    let kv =
      if t.materialize then Some (Rcc_storage.Snapshot.capture_kv t.store)
      else None
    in
    let replied =
      Hashtbl.fold
        (fun (client, digest) (round, result, _, _) acc ->
          (client, digest, round, result) :: acc)
        t.replied []
    in
    let b =
      Rcc_storage.Snapshot.boundary ~seq
        ~head:(Rcc_storage.Ledger.head_hash t.ledger) ~kv ~replied
    in
    t.boundaries <-
      b :: List.filteri (fun i _ -> i < boundary_capacity - 1) t.boundaries;
    match t.persist with
    | Some p ->
        p.p_snapshot b ~blocks:(Rcc_storage.Ledger.prefix t.ledger ~upto:seq)
    | None -> ()
  end

let slots t round =
  match Hashtbl.find_opt t.pending round with
  | Some a -> a
  | None ->
      let a = Array.make t.z None in
      Hashtbl.replace t.pending round a;
      a

let member_cost t (a : Acceptance.t) =
  let ntxns = Batch.txn_count a.batch in
  t.costs.Costs.exec_batch_overhead
  + (ntxns * t.costs.Costs.txn_exec)
  + t.costs.Costs.response_create
  + if a.speculative && t.sign_speculative then t.costs.Costs.sign else 0

let round_cost t ordered =
  Array.fold_left
    (fun acc a -> acc + member_cost t a)
    (Costs.hash_cost t.costs 256 (* block hash *))
    ordered

(* --- the one replay path ------------------------------------------------ *)

(* Every round — a serial round, a parallel window's round, a round
   replayed from the journal — becomes state the same way:
   [execute_member] for each rank in replay order, then [append_round].
   Live rounds wrap that in [commit_round]'s effects. *)

let wround round ordered =
  let nslots = Array.length ordered in
  {
    w_round = round;
    ordered;
    reply_round = Array.make nslots (-1);
    reply_digest = Array.make nslots "";
    did_exec = Array.make nslots false;
    ran = 0;
  }

(* Duplicate check, KV apply and duplicate-reply recording for one batch.
   A parallel window runs this at group-execution time (other groups are
   disjoint, so state order within the window is the serial one); its
   client responses, txn-table rows and the ledger block wait for the
   in-order commit, which reads the reply arrays. A serial member replies
   as soon as it has run. *)
let execute_member t (w : wround) rank (a : Acceptance.t) =
  let batch = a.batch in
  let key = (batch.Batch.client, batch.Batch.digest) in
  if executed_before t batch key then begin
    match Hashtbl.find_opt t.replied key with
    | Some (first_round, result_digest, _, _) ->
        w.reply_round.(rank) <- first_round;
        w.reply_digest.(rank) <- result_digest
    | None -> ()  (* reply evicted: [reply_round] stays -1, nothing sent *)
  end
  else begin
    if t.materialize then begin
      Rcc_storage.Kv_store.journal_round t.store w.w_round;
      Batch.apply t.store batch
    end;
    let result_digest =
      Rcc_crypto.Sha256.digest_list
        [
          batch.Batch.digest;
          Rcc_common.Bytes_util.u64_string (Int64.of_int w.w_round);
        ]
    in
    if not (Batch.is_null batch) then
      Hashtbl.replace t.replied key
        (w.w_round, result_digest, a.instance, batch.Batch.id);
    w.reply_round.(rank) <- w.w_round;
    w.reply_digest.(rank) <- result_digest;
    w.did_exec.(rank) <- true
  end

(* Live execution of one member: traced, unlike a journal replay. *)
let run_member t (w : wround) rank (a : Acceptance.t) =
  if Engine.tracing t.engine then
    Engine.trace t.engine ~replica:t.self ~instance:a.instance
      (Rcc_trace.Event.Slot_exec
         {
           round = w.w_round;
           batch = a.batch.Batch.id;
           txns = Batch.txn_count a.batch;
         });
  execute_member t w rank a;
  w.ran <- w.ran + 1

(* The client reply of one executed member; none for a null batch or a
   duplicate whose cached reply was evicted. *)
let send_reply t (w : wround) rank =
  let a = w.ordered.(rank) in
  let batch = a.Acceptance.batch in
  if (not (Batch.is_null batch)) && w.reply_round.(rank) >= 0 then
    t.respond batch.Batch.client
      (Msg.Response
         {
           client = batch.Batch.client;
           batch_id = batch.Batch.id;
           round = w.reply_round.(rank);
           result_digest = w.reply_digest.(rank);
           txn_count = Batch.txn_count batch;
           speculative = a.speculative;
           history = a.history;
         })

(* The state half of a commit: the round's block (every proof enters it —
   the batch was agreed in sequence — even a duplicate's) and the
   txn-table rows of the batches that executed. *)
let append_round t (w : wround) ~primaries =
  let proofs = ref [] in
  let clients = ref [] in
  Array.iteri
    (fun rank (a : Acceptance.t) ->
      let batch = a.batch in
      proofs :=
        {
          Rcc_storage.Block.instance = a.instance;
          batch_digest = batch.Batch.digest;
          certificate_digest = Rcc_storage.Block.certificate_placeholder;
        }
        :: !proofs;
      if not (Batch.is_null batch) then
        clients := batch.Batch.client :: !clients;
      if w.did_exec.(rank) then
        Rcc_storage.Txn_table.record t.txn_table
          {
            Rcc_storage.Txn_table.round = w.w_round;
            instance = a.instance;
            client = batch.Batch.client;
            batch_digest = batch.Batch.digest;
            response_digest = w.reply_digest.(rank);
            txn_count = Batch.txn_count batch;
          })
    w.ordered;
  Rcc_storage.Ledger.append_exn t.ledger
    {
      Rcc_storage.Block.round = w.w_round;
      prev_hash = Rcc_storage.Ledger.head_hash t.ledger;
      proofs = List.rev !proofs;
      primaries;
      clients = List.rev !clients;
    }

(* In-order commit of a fully executed round: the state half, then
   metrics, client responses ([send_replies]: a parallel window's, which
   wait for the commit), the round history, the journal, the boundary
   capture and the coordinator callback. Serial rounds commit with their
   last member; parallel ones on the scheduler FIFO, so commits retain
   round order.
   The horizon and ledger guards skip rounds a snapshot install
   superseded while queued. *)
let commit_round t (w : wround) ~send_replies =
  Hashtbl.remove t.uncommitted w.w_round;
  if
    w.w_round >= t.install_horizon
    && Rcc_storage.Ledger.next_round t.ledger = w.w_round
  then begin
    append_round t w ~primaries:(t.current_primaries ());
    Array.iteri
      (fun rank (a : Acceptance.t) ->
        if w.did_exec.(rank) then begin
          let ntxns = Batch.txn_count a.batch in
          t.executed_txns <- t.executed_txns + ntxns;
          Metrics.record_exec t.metrics ~replica:t.self
            ~now:(Engine.now t.engine) ~ntxns
        end;
        if send_replies then send_reply t w rank)
      w.ordered;
    t.executed_rounds <- t.executed_rounds + 1;
    Round_history.store t.history ~round:w.w_round ~floor:t.evict_floor
      w.ordered;
    (match t.persist with
    | Some p -> p.p_round ~round:w.w_round w.ordered
    | None -> ());
    capture_boundary t ~round:w.w_round;
    t.moved_at <- Engine.now t.engine;
    t.on_executed w.w_round
  end

(* --- serial scheduling: one completion per member ---------------------- *)

(* A complete round reserves the execute thread for its whole cost (its
   members plus the block hash) in FIFO order. Member k completes at the
   reservation's start plus the costs of members 0..k: it executes then,
   and its reply leaves at once, because its result depends only on the
   members before it (§3.4.1). Each completion schedules the next
   member, so a queued round holds one engine event; the last member
   also commits the round. While its members run, the round is in
   [uncommitted]: a rollback undoes and re-buffers it, and its [gen]
   fence stops the remaining members, as does a snapshot install past
   it through the horizon. *)
let rec serial_member t (w : wround) ~gen rank =
  if gen <> t.gen then ()  (* the rollback re-buffered the round *)
  else if w.w_round < t.install_horizon then
    Hashtbl.remove t.uncommitted w.w_round
  else begin
    run_member t w rank w.ordered.(rank);
    send_reply t w rank;
    let next = rank + 1 in
    if next = Array.length w.ordered then commit_round t w ~send_replies:false
    else
      Engine.schedule_at t.engine
        (Engine.now t.engine + member_cost t w.ordered.(next))
        (fun () -> serial_member t w ~gen next)
  end

(* The first member's completion re-checks the round rather than trusting
   the submit: a rollback in between may have replaced it (clearing the
   conflicted instance's slot), or a snapshot install superseded it. The
   job then skips; the rollback re-submits the rounds from its resume
   point, and the install holds the round's effects. Fault-free, the
   check always passes. The replay record is built only here, so a
   queued round holds just its ordered acceptances. *)
let start_serial t ~round (ordered : Acceptance.t array) =
  match Hashtbl.find_opt t.pending round with
  | Some slots
    when Array.for_all
           (fun (a : Acceptance.t) ->
             match slots.(a.instance) with Some b -> b == a | None -> false)
           ordered
         && Rcc_storage.Ledger.next_round t.ledger = round ->
      Hashtbl.remove t.pending round;
      let w = wround round ordered in
      Hashtbl.replace t.uncommitted round w;
      serial_member t w ~gen:t.gen 0
  | Some _ | None -> ()

let rec try_advance_serial t =
  match Hashtbl.find_opt t.pending t.next_round with
  | Some slots when Array.for_all Option.is_some slots ->
      let round = t.next_round in
      t.next_round <- round + 1;
      (* The buffer entry stays until the first member runs; [notify]
         cannot mutate it — its round guard rejects rounds below
         [next_round]. *)
      let ordered = t.reorder (Array.map Option.get slots) in
      let cost = round_cost t ordered in
      let start =
        Rcc_sim.Cpu.reserve t.server ~ready:(Engine.now t.engine) ~cost - cost
      in
      Engine.schedule_at t.engine
        (start + member_cost t ordered.(0))
        (fun () -> start_serial t ~round ordered);
      try_advance_serial t
  | Some _ | None -> ()

(* --- parallel scheduling: conflict-partitioned windows ----------------- *)

(* Windows end on checkpoint boundaries, and the window past one is not
   gathered until every commit before it has run. Group execution applies
   KV writes ahead of the in-order commits, so this is what makes the
   boundary commit see exactly the state after rounds [< seq]. *)
let rec try_advance_parallel t pool window =
  match t.active with
  | Some _ -> ()  (* one window in flight; re-triggered on completion *)
  | None when at_boundary t t.next_round && Hashtbl.length t.uncommitted > 0
    ->
      ()  (* re-triggered once the last commit drains *)
  | None ->
      let gathered = ref [] in
      let n = ref 0 in
      let continue_ = ref true in
      while !continue_ && !n < window do
        match Hashtbl.find_opt t.pending t.next_round with
        | Some slots when Array.for_all Option.is_some slots ->
            let round = t.next_round in
            Hashtbl.remove t.pending round;
            t.next_round <- round + 1;
            gathered :=
              wround round (t.reorder (Array.map Option.get slots))
              :: !gathered;
            incr n;
            if at_boundary t t.next_round then continue_ := false
        | _ -> continue_ := false
      done;
      if !n > 0 then
        dispatch_window t pool window (Array.of_list (List.rev !gathered))

and dispatch_window t pool window wrounds =
  let w_base = wrounds.(0).w_round in
  let items =
    Array.concat
      (Array.to_list
         (Array.map
            (fun w ->
              Array.mapi
                (fun rank a -> { Conflict.round = w.w_round; rank; acc = a })
                w.ordered)
            wrounds))
  in
  let groups = Conflict.partition items in
  let ngroups = List.length groups in
  (* The conflict scan and per-group dispatch run on the scheduler lane;
     group execution is chained off its completion time. *)
  let analysis_cost =
    (t.costs.Costs.conflict_scan * Conflict.total_keys items)
    + (t.costs.Costs.exec_dispatch * ngroups)
  in
  let ready =
    Rcc_sim.Cpu.reserve t.server ~ready:(Engine.now t.engine)
      ~cost:analysis_cost
  in
  let ws = { w_base; rounds = wrounds; groups_left = ngroups; gen = t.gen } in
  t.active <- Some ws;
  Array.iter (fun w -> Hashtbl.replace t.uncommitted w.w_round w) wrounds;
  List.iter
    (fun (g : Conflict.group) ->
      let gid = t.group_seq in
      t.group_seq <- t.group_seq + 1;
      if Engine.tracing t.engine then begin
        let distinct_rounds =
          List.sort_uniq Int.compare
            (List.map (fun it -> it.Conflict.round) g.members)
        in
        Engine.trace t.engine ~replica:t.self ~instance:(-1)
          (Rcc_trace.Event.Exec_group
             {
               group = gid;
               members = List.length g.members;
               txns = g.txns;
               rounds = List.length distinct_rounds;
             });
        if g.conflict_keys > 0 then
          Engine.trace t.engine ~replica:t.self ~instance:(-1)
            (Rcc_trace.Event.Exec_conflict
               { group = gid; keys = g.conflict_keys })
      end;
      let cost =
        List.fold_left
          (fun c it -> c + member_cost t it.Conflict.acc)
          0 g.members
      in
      Rcc_sim.Cpu.pool_submit_ready pool ~ready ~cost (fun () ->
          (* A rollback fenced this window: its rounds were re-buffered
             for re-execution, so the stale group must neither apply
             state nor complete the (already released) window. *)
          if ws.gen = t.gen then begin
            List.iter
              (fun (it : Conflict.item) ->
                if it.Conflict.round >= t.install_horizon then
                  run_member t
                    wrounds.(it.Conflict.round - w_base)
                    it.Conflict.rank it.Conflict.acc)
              g.members;
            ws.groups_left <- ws.groups_left - 1;
            if ws.groups_left = 0 then complete_window t pool window ws
          end))
    groups

and complete_window t pool window ws =
  (* All groups done: queue the in-order commits on the scheduler FIFO
     (one block hash each), release the window, and gather the next one —
     its analysis queues behind the commit costs on the same lane, while
     its group execution overlaps them on the pool. *)
  Array.iter
    (fun w ->
      Rcc_sim.Cpu.submit t.server
        ~cost:(Costs.hash_cost t.costs 256)
        (fun () ->
          if ws.gen = t.gen then begin
            commit_round t w ~send_replies:true;
            if Hashtbl.length t.uncommitted = 0 then
              try_advance_parallel t pool window
          end))
    ws.rounds;
  t.active <- None;
  try_advance_parallel t pool window

let try_advance t =
  match t.sched with
  | Serial -> try_advance_serial t
  | Parallel { pool; window } -> try_advance_parallel t pool window

let notify t (a : Acceptance.t) =
  if a.round >= t.next_round then begin
    let slots = slots t a.round in
    if Option.is_none slots.(a.instance) then begin
      slots.(a.instance) <- Some a;
      if a.round > t.high_water then t.high_water <- a.round;
      if a.round = t.next_round then try_advance t
    end
  end

let next_round t = t.next_round
let last_move t = t.moved_at

let max_pending_round t =
  if t.high_water > t.next_round - 1 then t.high_water else t.next_round - 1

let executed_rounds t = t.executed_rounds

let executed_members t =
  Hashtbl.fold (fun _ (w : wround) acc -> acc + w.ran) t.uncommitted 0
let executed_txns t = t.executed_txns

let missing_instances t ~round =
  if round < t.next_round then []
  else
    match Hashtbl.find_opt t.pending round with
    | None -> List.init t.z (fun i -> i)
    | Some slots ->
        let missing = ref [] in
        for i = t.z - 1 downto 0 do
          if Option.is_none slots.(i) then missing := i :: !missing
        done;
        !missing

let accepted t ~round ~instance =
  if round >= t.next_round then
    match Hashtbl.find_opt t.pending round with
    | Some slots -> slots.(instance)
    | None -> None
  else Round_history.find t.history ~round ~instance

(* --- duplicate-reply cache bound --------------------------------------- *)

let evict_replied t floor =
  let dead =
    Hashtbl.fold
      (fun key (round, _, _, id) acc ->
        if round < floor then (key, id) :: acc else acc)
      t.replied []
  in
  List.iter
    (fun (((client, _) as key), id) ->
      let settled =
        Option.value (Hashtbl.find_opt t.settled_ids client) ~default:(-1)
      in
      if id > settled then Hashtbl.replace t.settled_ids client id;
      Hashtbl.remove t.replied key)
    dead;
  t.replied_evicted <- t.replied_evicted + List.length dead

let on_stable t ~instance ~seq =
  if instance >= 0 && instance < t.z && seq > t.stable.(instance) then begin
    t.stable.(instance) <- seq;
    let floor = Array.fold_left min max_int t.stable in
    if floor > t.evict_floor then begin
      t.evict_floor <- floor;
      evict_replied t floor;
      (* Rounds below the cross-instance stable floor can never be rolled
         back (a conflict at or below an instance's stable checkpoint is
         left to state transfer), so their undo records are dead weight,
         and the round history may evict them. *)
      if t.materialize then
        Rcc_storage.Kv_store.forget_below t.store ~round:floor;
      match t.persist with
      | Some p -> p.p_stable ~floor
      | None -> ()
    end
  end

let replied_retained t =
  let counts = Array.make t.z 0 in
  Hashtbl.iter
    (fun _ (_, _, instance, _) ->
      if instance >= 0 && instance < t.z then
        counts.(instance) <- counts.(instance) + 1)
    t.replied;
  counts

let replied_evicted t = t.replied_evicted

(* --- speculative rollback ---------------------------------------------- *)

(* The state half of a rollback, shared with journal replay: undo the KV
   writes of rounds at or above [kv_undo] (newest first, from the write
   journal), drop ledger blocks and txn-table rows at or above
   [frontier] (the head-hash chain re-derives from the surviving
   prefix), and evict the duplicate-reply entries whose first execution
   was undone — they would answer a future duplicate from state that no
   longer exists; re-execution re-records them. Returns the txns
   unwound. *)
let unwind t ~frontier ~kv_undo =
  if t.materialize then Rcc_storage.Kv_store.undo_above t.store ~round:kv_undo;
  Rcc_storage.Ledger.truncate_to t.ledger ~round:frontier;
  let _, txns = Rcc_storage.Txn_table.remove_from t.txn_table ~round:frontier in
  let dead =
    Hashtbl.fold
      (fun key (round, _, _, _) acc ->
        if round >= kv_undo then key :: acc else acc)
      t.replied []
  in
  List.iter (Hashtbl.remove t.replied) dead;
  t.replied_evicted <- t.replied_evicted + List.length dead;
  txns

(* Unwind every executed-but-unstable round at or above [frontier]: a
   view change in [instance] exposed a conflicting ordering, so the
   speculative suffix is discarded ([unwind]) and the surviving
   instances' acceptances re-enter the pending buffer for re-execution
   once [instance]'s new view re-orders its slots. The caller guarantees
   [frontier] is above both the commit certificate and the stable
   checkpoint, so undo records still exist (see [on_stable]'s forget
   floor). *)
let rollback_to t ~frontier ~instance =
  let from = Rcc_storage.Ledger.next_round t.ledger in
  if Engine.tracing t.engine then begin
    Engine.trace t.engine ~replica:t.self ~instance
      (Rcc_trace.Event.Rollback_begin { frontier; from });
    for r = frontier to from - 1 do
      let txns =
        List.fold_left
          (fun acc (e : Rcc_storage.Txn_table.entry) ->
            acc + e.Rcc_storage.Txn_table.txn_count)
          0
          (Rcc_storage.Txn_table.find t.txn_table ~round:r)
      in
      Engine.trace t.engine ~replica:t.self ~instance
        (Rcc_trace.Event.Rollback_round { round = r; txns })
    done
  end;
  (* Fence the rounds in flight — a serial round's remaining members, a
     parallel window's groups and commit jobs — which compare
     generations and skip themselves. Their members that already
     executed re-enter the buffer below, and their KV effects are undone
     with the committed suffix — so the undo point is the lowest
     in-flight round when one sits below the frontier. *)
  t.gen <- t.gen + 1;
  t.active <- None;
  let in_flight = Hashtbl.fold (fun _ w acc -> w :: acc) t.uncommitted [] in
  Hashtbl.reset t.uncommitted;
  let kv_undo =
    List.fold_left (fun m (w : wround) -> min m w.w_round) frontier in_flight
  in
  let rb_txns = unwind t ~frontier ~kv_undo in
  let resume = Rcc_storage.Ledger.next_round t.ledger in
  let rb_rounds = from - resume in
  t.executed_rounds <- t.executed_rounds - rb_rounds;
  t.executed_txns <- t.executed_txns - rb_txns;
  (* Re-buffer the unwound rounds' surviving acceptances — committed
     rounds taken back from the round history plus fenced in-flight
     rounds — then clear the conflicted instance's slots at or
     above the frontier: those forked orders are exactly what is being
     discarded, and its new view re-delivers replacements. *)
  let rebuffer (a : Acceptance.t) =
    (slots t a.round).(a.instance) <- Some a;
    if a.round > t.high_water then t.high_water <- a.round
  in
  List.iter rebuffer (Round_history.rollback t.history ~frontier);
  List.iter (fun (w : wround) -> Array.iter rebuffer w.ordered) in_flight;
  Hashtbl.iter
    (fun round sl -> if round >= frontier then sl.(instance) <- None)
    t.pending;
  set_next_round t resume;
  (* Boundaries past the resume point captured state that no longer
     exists; re-execution captures them afresh. *)
  t.boundaries <-
    List.filter
      (fun (b : Rcc_storage.Snapshot.boundary) -> b.b_seq <= resume)
      t.boundaries;
  (match t.persist with
  | Some p -> p.p_rollback ~frontier:resume
  | None -> ());
  Metrics.record_rollback ~instance t.metrics ~rounds:rb_rounds ~txns:rb_txns;
  if Engine.tracing t.engine then
    Engine.trace t.engine ~replica:t.self ~instance
      (Rcc_trace.Event.Rollback_complete
         { frontier; rounds = rb_rounds; txns = rb_txns });
  try_advance t

(* --- snapshot install and journal replay ------------------------------ *)

let install_snapshot t (snap : Rcc_storage.Snapshot.t) =
  let seq = snap.Rcc_storage.Snapshot.seq in
  (* Wholesale, in dependency order: the chain, then the KV table it led
     to. *)
  Rcc_storage.Ledger.install t.ledger snap.Rcc_storage.Snapshot.blocks;
  (match snap.Rcc_storage.Snapshot.kv with
  | Some entries when t.materialize ->
      Rcc_storage.Kv_store.install t.store entries
  | Some _ | None -> ());
  (* Rounds below [seq] are baked into the installed state. A queued or
     in-flight serial round or an in-flight window may cover them:
     raising the horizon makes its remaining members and commits skip
     themselves. *)
  if seq > t.install_horizon then t.install_horizon <- seq;
  if seq > t.next_round then begin
    (* Acceptances buffered for covered rounds are obsolete — the
       snapshot already contains their effects. Buffered rounds at or
       past the boundary stay pending and drain normally below. *)
    let stale =
      Hashtbl.fold
        (fun round _ acc -> if round < seq then round :: acc else acc)
        t.pending []
    in
    List.iter (Hashtbl.remove t.pending) stale;
    set_next_round t seq;
    (* The snapshot's duplicate-reply cache keeps §3.1 duplicate
       suppression alive across the jump; existing (newer) local entries
       win. Its entries carry neither the owning instance nor the batch
       id: they count toward instance 0 in the retained-count stat, and
       their eviction settles no client id. *)
    List.iter
      (fun (client, digest, round, result) ->
        let key = (client, digest) in
        if not (Hashtbl.mem t.replied key) then
          Hashtbl.replace t.replied key (round, result, 0, -1))
      snap.Rcc_storage.Snapshot.replied;
    try_advance t
  end

let replay_round t ~round ~primaries ordered =
  let w = wround round ordered in
  Array.iteri (execute_member t w) ordered;
  append_round t w ~primaries;
  set_next_round t (round + 1);
  let txns = ref 0 in
  Array.iteri
    (fun rank (a : Acceptance.t) ->
      if w.did_exec.(rank) then
        txns := !txns + Batch.txn_count a.batch)
    ordered;
  !txns

let replay_rollback t ~frontier =
  if frontier < Rcc_storage.Ledger.next_round t.ledger then begin
    ignore (unwind t ~frontier ~kv_undo:frontier);
    set_next_round t (Rcc_storage.Ledger.next_round t.ledger)
  end

let replay_stable t ~floor =
  if t.materialize then Rcc_storage.Kv_store.forget_below t.store ~round:floor
