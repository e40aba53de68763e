(* Per-layer numbers from one traced run, over its post-warmup window
   [w0, w1] (simulated ns). The recorder must hold every event of the
   window; the caller checks that before calling [analyze].

   Latency decomposition, per round k and replica r (all samples in ms):
   - order: slot_propose -> slot_accept at the instance's primary;
   - barrier: instance x's slot_accept -> the last of the z accepts of
     round k on r (the round barrier of the unified execution order);
   - queue_service: that last accept -> slot_exec of x's batch on r.
   What remains of the client p50 is request travel, batching and the
   reply quorum. *)

module Event = Rcc_trace.Event
module Recorder = Rcc_trace.Recorder
module Config = Rcc_runtime.Config
module Report = Rcc_runtime.Report

(* Nearest-rank percentile; 0 without samples. *)
let percentile samples p =
  let a = Array.of_list samples in
  let n = Array.length a in
  if n = 0 then 0.0
  else begin
    Array.sort Float.compare a;
    let rank = int_of_float (Float.ceil (p *. float_of_int n)) in
    a.(max 0 (min (n - 1) (rank - 1)))
  end

let ms ns = float_of_int ns *. 1e-6

(* Span tracks are named by the server that ran them: "r3-input-1",
   "r3-batch-0", "r3-worker2", "r3-exec", "r3-exec-pool-1", "r3-disk" and
   "nic-3" ("nic-3.1" after a revival). *)
let cpu_class track =
  let prefixed p = String.starts_with ~prefix:p in
  if prefixed "nic-" track then Some "nic"
  else
    match String.index_opt track '-' with
    | None -> None
    | Some i ->
        let rest = String.sub track (i + 1) (String.length track - i - 1) in
        if rest = "exec" then Some "exec"
        else if prefixed "exec-pool" rest then Some "exec_pool"
        else if prefixed "input" rest then Some "input"
        else if prefixed "batch" rest then Some "batch"
        else if prefixed "worker" rest then Some "worker"
        else if rest = "disk" then Some "disk"
        else None

(* Servers per class. Cluster.build gives every replica 3 input threads,
   2 batch threads, one worker per instance and one execute thread; the
   pool, the disk lane and the NIC follow the config. Client-machine NICs
   are not counted. *)
let servers (cfg : Config.t) = function
  | "input" -> 3 * cfg.Config.n
  | "batch" -> 2 * cfg.Config.n
  | "worker" -> cfg.Config.n * cfg.Config.z
  | "exec" | "nic" -> cfg.Config.n
  | "exec_pool" ->
      if cfg.Config.exec_mode = Config.Exec_parallel then
        cfg.Config.n * cfg.Config.exec_threads
      else 0
  | "disk" -> if cfg.Config.journal then cfg.Config.n else 0
  | _ -> 0

let analyze (cfg : Config.t) (report : Report.t) recorder ~w0 ~w1 =
  let n = cfg.Config.n and z = cfg.Config.z in
  let window = float_of_int (w1 - w0) in
  let in_window at = at >= w0 && at <= w1 in
  let busy_class = Hashtbl.create 8 and busy_track = Hashtbl.create 256 in
  let add tbl k v =
    Hashtbl.replace tbl k (v + Option.value (Hashtbl.find_opt tbl k) ~default:0)
  in
  let primary = Array.init z Fun.id in
  let proposed = Hashtbl.create 1024 in
  let order = ref [] in
  let per_round () = Array.make z (-1) in
  let accepts = Hashtbl.create 4096 and execs = Hashtbl.create 4096 in
  let first tbl key x at =
    let a =
      match Hashtbl.find_opt tbl key with
      | Some a -> a
      | None ->
          let a = per_round () in
          Hashtbl.add tbl key a;
          a
    in
    if x >= 0 && x < z && a.(x) < 0 then a.(x) <- at
  in
  let sends = Hashtbl.create 32 in
  let groups = ref 0 and members = ref 0 and conflicts = ref 0 in
  let flushes = ref 0 and flushed_records = ref 0 in
  Recorder.iter recorder (fun { Event.at; replica; instance; payload } ->
      match payload with
      | Event.Span { track; dur } -> (
          let s = max at w0 and e = min (at + dur) w1 in
          match cpu_class track with
          | Some cls when e > s && replica >= 0 && replica < n ->
              add busy_class cls (e - s);
              add busy_track track (e - s)
          | Some _ | None -> ())
      | Event.Primary_change { primary = p; _ }
        when replica = 0 && instance >= 0 && instance < z ->
          primary.(instance) <- p
      | Event.Slot_propose { round } when instance >= 0 && instance < z ->
          if replica = primary.(instance) then
            Hashtbl.replace proposed (instance, round) at
      | Event.Slot_accept { round; _ } ->
          first accepts (replica, round) instance at;
          if instance >= 0 && instance < z && replica = primary.(instance)
             && in_window at
          then
            Option.iter
              (fun p -> order := ms (at - p) :: !order)
              (Hashtbl.find_opt proposed (instance, round))
      | Event.Slot_exec { round; _ } -> first execs (replica, round) instance at
      | Event.Net_send { kind; _ } when in_window at -> add sends kind 1
      | Event.Exec_group { members = m; _ } when in_window at ->
          incr groups;
          members := !members + m
      | Event.Exec_conflict _ when in_window at -> incr conflicts
      | Event.Journal_flush { records; _ } when in_window at ->
          incr flushes;
          flushed_records := !flushed_records + records
      | _ -> ());
  let barrier = ref [] and queue_service = ref [] in
  Hashtbl.iter
    (fun key acc ->
      if Array.for_all (fun t -> t >= w0) acc then begin
        let last = Array.fold_left max 0 acc in
        if last <= w1 then begin
          Array.iter (fun t -> barrier := ms (last - t) :: !barrier) acc;
          Option.iter
            (fun ex ->
              Array.iter
                (fun t -> if t >= 0 then queue_service := ms (t - last) :: !queue_service)
                ex)
            (Hashtbl.find_opt execs key)
        end
      end)
    accepts;
  let committed = float_of_int (max 1 report.Report.committed_txns) in
  let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b in
  let util cls =
    let k = servers cfg cls in
    if k = 0 then 0.0
    else
      float_of_int (Option.value (Hashtbl.find_opt busy_class cls) ~default:0)
      /. (float_of_int k *. window)
  in
  let util_max cls =
    Hashtbl.fold
      (fun track busy m ->
        if cpu_class track = Some cls then Float.max m (float_of_int busy /. window)
        else m)
      busy_track 0.0
  in
  let lat_p50 = report.Report.p50_latency *. 1e3 in
  let order_p50 = percentile !order 0.5
  and barrier_p50 = percentile !barrier 0.5
  and qs_p50 = percentile !queue_service 0.5 in
  List.map (fun cls -> (Printf.sprintf "sim.cpu.%s.util" cls, util cls)) Spec.cpu_classes
  @ [
      ("sim.cpu.worker.util_max", util_max "worker");
      ("sim.cpu.exec.util_max", util_max "exec");
      ("proto_core.order_ms.p50", order_p50);
      ("proto_core.order_ms.p99", percentile !order 0.99);
      ("replica.exec.barrier_ms.p50", barrier_p50);
      ("replica.exec.barrier_ms.p99", percentile !barrier 0.99);
      ("replica.exec.queue_service_ms.p50", qs_p50);
      ("replica.exec.queue_service_ms.p99", percentile !queue_service 0.99);
      ("replica.exec.barrier_share", if lat_p50 > 0.0 then barrier_p50 /. lat_p50 else 0.0);
      ("client_other_ms.p50", lat_p50 -. order_p50 -. barrier_p50 -. qs_p50);
    ]
  @ List.map
      (fun kind ->
        ( Printf.sprintf "sim.net.%s.msgs_per_txn" kind,
          float_of_int (Option.value (Hashtbl.find_opt sends kind) ~default:0)
          /. committed ))
      Spec.net_kinds
  @ [
      ("replica.conflict.group_members.mean", ratio !members !groups);
      ("replica.conflict.conflict_frac", ratio !conflicts !groups);
      ("journal.records_per_flush", ratio !flushed_records !flushes);
    ]
