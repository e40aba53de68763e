(** The environment a protocol instance runs in.

    An instance never touches the network or the execute thread directly;
    it talks through these callbacks, which the node builder wires to the
    simulated pipeline (charging worker CPU for marshalling and MACs on
    every send). This is the seam that makes the protocols reusable both
    standalone and as RCC instances. *)

open Rcc_common.Ids

type t = {
  n : int;
  f : int;
  z : int;
  instance : instance_id;
  self : replica_id;
  engine : Rcc_sim.Engine.t;
  costs : Rcc_sim.Costs.t;
  timeout : Rcc_sim.Engine.time;  (** replica view-change timeout (10 s in §7.5) *)
  checkpoint_interval : int;  (** rounds between checkpoints *)
  send : ?sign:bool -> dst:replica_id -> Rcc_messages.Msg.t -> unit;
      (** Point-to-point send; [sign] charges a digital signature instead
          of a MAC (HotStuff-style protocols). *)
  broadcast :
    ?sign:bool -> ?exclude:(replica_id -> bool) -> Rcc_messages.Msg.t -> unit;
      (** Send to every other replica, minus exclusions (byzantine
          primaries exclude their victims here). *)
  respond : Rcc_common.Ids.client_id -> Rcc_messages.Msg.t -> unit;
      (** Direct reply to a client (Zyzzyva LOCAL-COMMIT acks). *)
  accept : Acceptance.t -> unit;
      (** Replication of a round completed at this replica. *)
  on_stable : seq:round -> unit;
      (** This instance's checkpoint became stable for rounds [< seq];
          the execute stage uses the per-instance frontiers to bound its
          duplicate-reply cache. *)
  report_failure : announce:bool -> round:round -> blamed:replica_id -> unit;
      (** This replica accuses [blamed] of failing [round] (R2). Under RCC
          the coordinator signs the accusation, broadcasts it as a
          VIEW-CHANGE through this instance's worker if [announce], and
          counts it; standalone the instance runs its own view change and
          this only traces. *)
  rollback : frontier:round -> unit;
      (** A certified view change exposed an ordering conflicting with
          this instance's executed speculative rounds at or above
          [frontier]; the execute stage must unwind them (and the
          coordinator forget its retained copies) before the new view's
          orders re-execute. *)
  null_fill : proposed_upto:round -> (Rcc_messages.Batch.t -> unit) -> unit;
      (** Propose null batches through the given proposer, from the
          execute stage's stalled round (past [proposed_upto]) up to the
          horizon the other instances already reached, so an instance
          that fell behind does not throttle the round rate. The liveness
          monitor's idle fill and a finished unified takeover share it. *)
  byz : Byz.t;  (** how this replica misbehaves when primary *)
  unified : bool;
      (** true under RCC: primary replacement is decided by the
          coordinator (unified multi-leader election, §3.4.2); false for
          the standalone protocol's own view-change. *)
}

let quorum_2f1 t = (2 * t.f) + 1
let majority_nf t = t.f + 1

let tracing t = Rcc_sim.Engine.tracing t.engine

let trace t payload =
  Rcc_sim.Engine.trace t.engine ~replica:t.self ~instance:t.instance payload

(* Wrap the upward callbacks so every protocol emits accept / blame
   trace events without per-protocol code. Builders call
   [P.create (instrument env)] — the instance never knows. Under RCC the
   coordinator records the blame it counts, so only a standalone
   accusation is traced here. *)
let instrument t =
  {
    t with
    accept =
      (fun (a : Acceptance.t) ->
        if tracing t then
          trace t
            (Rcc_trace.Event.Slot_accept
               {
                 round = a.round;
                 batch = a.batch.Rcc_messages.Batch.id;
                 txns = Array.length a.batch.Rcc_messages.Batch.txns;
               });
        t.accept a);
    report_failure =
      (if t.unified then t.report_failure
       else fun ~announce ~round ~blamed ->
         if tracing t then
           trace t (Rcc_trace.Event.Blame { round; blamed; accuser = t.self });
         t.report_failure ~announce ~round ~blamed);
  }
