module Engine = Rcc_sim.Engine

type protocol = Pbft | Zyzzyva | Hotstuff | MultiP | MultiZ | Cft | MultiC

let protocol_name = function
  | Pbft -> "pbft"
  | Zyzzyva -> "zyzzyva"
  | Hotstuff -> "hotstuff"
  | MultiP -> "multip"
  | MultiZ -> "multiz"
  | Cft -> "cft"
  | MultiC -> "multic"

let all_protocols = [ MultiZ; MultiP; Zyzzyva; Pbft; Hotstuff ]

type fault =
  | No_fault
  | Crash of Rcc_common.Ids.replica_id list
  | Dark of {
      instance : Rcc_common.Ids.instance_id;
      victims : Rcc_common.Ids.replica_id list;
    }
  | Collusion of {
      victim : Rcc_common.Ids.replica_id;
      at_round : Rcc_common.Ids.round;
    }
  | Client_dos of { instance : Rcc_common.Ids.instance_id }

type exec_mode = Exec_serial | Exec_parallel

let exec_mode_name = function
  | Exec_serial -> "serial"
  | Exec_parallel -> "parallel"

type arrival_process = Poisson | Uniform

let arrival_process_name = function Poisson -> "poisson" | Uniform -> "uniform"

type t = {
  protocol : protocol;
  n : int;
  f : int;
  z : int;
  batch_size : int;
  clients : int;  (* total logical clients, equal across protocols *)
  duration : Rcc_sim.Engine.time;
  warmup : Rcc_sim.Engine.time;
  replica_timeout : Rcc_sim.Engine.time;
  client_timeout : Rcc_sim.Engine.time;
  collusion_wait : Rcc_sim.Engine.time;
  recovery : Rcc_core.Coordinator.recovery_mode;
  use_permutation : bool;
  records : int;
  write_ratio : float;
  theta : float;
  latency : Rcc_sim.Engine.time;
  checkpoint_interval : int;
  instance_change_after : int;
  seed : int;
  fault : fault;
  exec_mode : exec_mode;
  exec_threads : int;
  exec_window : int;
  arrival_rate : float;
      (* offered load in txn/s; 0.0 selects the closed-loop default *)
  arrival_process : arrival_process;
  max_in_flight : int;  (* open-loop in-flight cap; <= 0 = one per client *)
  journal : bool;  (* durable write-ahead journal; off by default so
                      fault-free perf digests stay byte-identical *)
  storage_faults : float;  (* per-record fault probability on every disk *)
}

let make ?(batch_size = 100) ?(clients = 240)
    ?(duration = Engine.of_seconds 3.0) ?(warmup = Engine.of_seconds 1.0)
    ?(replica_timeout = Engine.s 10) ?(client_timeout = Engine.s 15)
    ?(collusion_wait = Engine.s 5)
    ?(recovery = Rcc_core.Coordinator.Optimistic) ?(use_permutation = true)
    ?(records = 500_000) ?(write_ratio = 0.9) ?(theta = 0.9) ?z ?(seed = 42)
    ?(instance_change_after = 3) ?(fault = No_fault)
    ?(exec_mode = Exec_serial) ?(exec_threads = 4) ?(exec_window = 8)
    ?(arrival_rate = 0.0) ?(arrival_process = Poisson) ?(max_in_flight = 0)
    ?(journal = false) ?(storage_faults = 0.0) ~protocol ~n () =
  if n < 4 then invalid_arg "Config.make: need n >= 4";
  let f = (n - 1) / 3 in
  let z =
    match z with
    | Some z -> z
    | None -> (
        match protocol with
        | MultiP | MultiZ | MultiC -> f + 1
        | Pbft | Zyzzyva | Hotstuff | Cft -> 1)
  in
  {
    protocol;
    n;
    f;
    z;
    batch_size;
    clients;
    duration;
    warmup;
    replica_timeout;
    client_timeout;
    collusion_wait;
    recovery;
    use_permutation;
    records;
    write_ratio;
    theta;
    latency = Engine.us 100;
    checkpoint_interval = 128;
    instance_change_after;
    seed;
    fault;
    exec_mode;
    exec_threads;
    exec_window;
    arrival_rate;
    arrival_process;
    max_in_flight;
    journal;
    storage_faults;
  }

let client_instances t =
  match t.protocol with
  | Hotstuff -> t.n
  | Pbft | Zyzzyva | MultiP | MultiZ | Cft | MultiC -> t.z

let total_clients t = t.clients

let open_loop t = t.arrival_rate > 0.0

let client_arrival t =
  if t.arrival_rate <= 0.0 then Rcc_replica.Client_pool.Closed_loop
  else
    Rcc_replica.Client_pool.Open_loop
      {
        rate = t.arrival_rate;
        process =
          (match t.arrival_process with
          | Poisson -> Rcc_replica.Client_pool.Poisson
          | Uniform -> Rcc_replica.Client_pool.Uniform);
        max_in_flight = t.max_in_flight;
      }

let quorum t =
  match t.protocol with
  | Zyzzyva | MultiZ -> Rcc_replica.Client_pool.All_n_speculative
  | Pbft | Hotstuff | MultiP | Cft | MultiC ->
      Rcc_replica.Client_pool.Majority_fplus1

let jitter = Engine.us 60
let gbps = 4.0
let cores = 16 (* per replica machine, §7.1 *)

(* Input + output + batch threads, z workers, execute and checkpoint
   threads versus the machine's cores (§7.1 gives the baselines the same
   12-thread layout). Oversubscription inflates CPU costs at half the
   excess ratio: the workers are not all runnable at once. *)
let contention_factor t =
  (* Serial mode runs the historical single execute thread; parallel mode
     adds the execute pool alongside the scheduler lane. *)
  let exec_threads =
    match t.exec_mode with
    | Exec_serial -> 1
    | Exec_parallel -> t.exec_threads + 1
  in
  let threads =
    Rcc_replica.Node.(input_threads + output_threads + batch_threads)
    + t.z + exec_threads + 1
  in
  let pressure = float_of_int threads /. float_of_int cores in
  if pressure <= 1.0 then 1.0 else 1.0 +. (0.5 *. (pressure -. 1.0))
