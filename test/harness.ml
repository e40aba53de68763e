(* Protocol-level test harness: n instances of one pluggable protocol wired
   directly to each other over the simulation engine (fixed small latency,
   no pipeline costs). Lets unit tests drive PBFT / Zyzzyva / HotStuff
   message flows without building a whole cluster. *)

module Engine = Rcc_sim.Engine
module Msg = Rcc_messages.Msg
module Batch = Rcc_messages.Batch
module Env = Rcc_replica.Instance_env

let latency = Engine.us 50

module Make (P : Rcc_replica.Instance_intf.S) = struct
  type node = {
    inst : P.t;
    accepted : (int, Rcc_replica.Acceptance.t) Hashtbl.t;
    mutable failures : (int * int) list;  (* (round, blamed) *)
    mutable responses : Msg.t list;  (* replica -> client messages *)
    mutable rollbacks : int list;  (* frontiers, most recent first *)
    mutable sent : (Engine.time * Msg.t) list;
        (* every send / broadcast, with its send time, most recent first *)
  }

  type t = {
    engine : Engine.t;
    nodes : node array;
    mutable dead : bool array;
    tracer : Rcc_trace.Recorder.t option;
  }

  let create ?(timeout = Engine.ms 200) ?(byz = fun (_ : int) -> Rcc_replica.Byz.honest)
      ?(unified = false) ?(checkpoint_interval = 64) ?(trace = false) ~n () =
    let f = (n - 1) / 3 in
    let engine = Engine.create () in
    let tracer =
      if trace then begin
        let r = Rcc_trace.Recorder.create () in
        Engine.set_tracer engine r;
        Some r
      end
      else None
    in
    let dead = Array.make n false in
    let nodes : node option array = Array.make n None in
    let node_of i = match nodes.(i) with Some node -> node | None -> assert false in
    let deliver ~src ~dst msg =
      if (not dead.(src)) && not dead.(dst) then
        Engine.schedule_after engine latency (fun () ->
            if not dead.(dst) then P.handle (node_of dst).inst ~src msg)
    in
    let log_sent self msg =
      let node = node_of self in
      node.sent <- (Engine.now engine, msg) :: node.sent
    in
    for self = 0 to n - 1 do
      let env =
        {
          Env.n;
          f;
          z = 1;
          instance = 0;
          self;
          engine;
          costs = Rcc_sim.Costs.default;
          timeout;
          checkpoint_interval;
          on_stable = (fun ~seq:_ -> ());
          send =
            (fun ?sign:_ ~dst msg ->
              log_sent self msg;
              deliver ~src:self ~dst msg);
          broadcast =
            (fun ?sign:_ ?(exclude = fun _ -> false) msg ->
              log_sent self msg;
              for dst = 0 to n - 1 do
                if dst <> self && not (exclude dst) then deliver ~src:self ~dst msg
              done);
          respond =
            (fun _client msg ->
              let node = node_of self in
              node.responses <- msg :: node.responses);
          accept =
            (fun acceptance ->
              let node = node_of self in
              Hashtbl.replace node.accepted acceptance.Rcc_replica.Acceptance.round
                acceptance;
              (* The harness has no execute stage; accepting IS executing
                 here, so stamp the execution event the conformance
                 trace-order checks look for. *)
              if Engine.tracing engine then
                Engine.trace engine ~replica:self ~instance:0
                  (Rcc_trace.Event.Slot_exec
                     {
                       round = acceptance.Rcc_replica.Acceptance.round;
                       batch = acceptance.Rcc_replica.Acceptance.batch.Batch.id;
                       txns =
                         Batch.txn_count
                           acceptance.Rcc_replica.Acceptance.batch;
                     }));
          report_failure =
            (fun ~announce:_ ~round ~blamed ->
              let node = node_of self in
              node.failures <- (round, blamed) :: node.failures);
          rollback =
            (fun ~frontier ->
              let node = node_of self in
              node.rollbacks <- frontier :: node.rollbacks;
              (* Accepting is executing here (see [accept]), so a
                 rollback discards the speculative suffix the same way
                 the real execute stage unwinds its ledger. *)
              let doomed =
                Hashtbl.fold
                  (fun round _ acc ->
                    if round >= frontier then round :: acc else acc)
                  node.accepted []
              in
              List.iter (Hashtbl.remove node.accepted) doomed);
          (* One instance and no execute stage: no horizon to catch up to. *)
          null_fill = (fun ~proposed_upto:_ _ -> ());
          byz = Rcc_replica.Byz.copy (byz self);
          unified;
        }
      in
      nodes.(self) <-
        Some
          {
            inst = P.create (Env.instrument env);
            accepted = Hashtbl.create 64;
            failures = [];
            responses = [];
            rollbacks = [];
            sent = [];
          }
    done;
    let t = { engine; nodes = Array.map Option.get nodes; dead; tracer } in
    Array.iter (fun node -> P.start node.inst) t.nodes;
    t

  let run t seconds = Engine.run t.engine ~until:(Engine.of_seconds seconds)
  let node t i = t.nodes.(i)
  let inst t i = t.nodes.(i).inst
  let kill t i = t.dead.(i) <- true
  let revive t i = t.dead.(i) <- false

  let accepted_batch_id t ~replica ~round =
    match Hashtbl.find_opt t.nodes.(replica).accepted round with
    | Some a -> Some a.Rcc_replica.Acceptance.batch.Batch.id
    | None -> None

  (* Messages [replica] sent, oldest first, with their send times. *)
  let sent t ~replica = List.rev t.nodes.(replica).sent

  let submit t ~replica batch = P.submit_batch t.nodes.(replica).inst batch

  let trace_events t =
    match t.tracer with
    | Some r -> Rcc_trace.Recorder.to_list r
    | None -> []
end

let rng = Rcc_common.Rng.create 2024
let client_secret, _client_public = Rcc_crypto.Signature.keygen rng

let make_batch ?(client = 0) ?(ntxns = 3) id =
  let txns =
    Array.init ntxns (fun i ->
        Rcc_workload.Txn.{ key = (id * 17) + i; op = Write ((id * 100) + i) })
  in
  Batch.create ~id ~client ~txns ~secret:client_secret
