(** Experiment configuration (§7.2 setup).

    Defaults mirror the paper: YCSB with half a million records, 90%
    writes, Zipf 0.9; batch size 100; replica/client timeouts of 10 s /
    15 s; Google-Cloud-class network (~100 µs one-way; NICs modeled at
    {!gbps} Gbit/s).
    Simulated durations are shorter than the paper's 180 s (steady state is
    reached within fractions of a second; see DESIGN.md). *)

type protocol =
  | Pbft
  | Zyzzyva
  | Hotstuff
  | MultiP
  | MultiZ
  | Cft  (** crash-fault primary-backup baseline (§8 extension) *)
  | MultiC  (** RCC over the crash-fault protocol *)

val protocol_name : protocol -> string
val all_protocols : protocol list

type fault =
  | No_fault
  | Crash of Rcc_common.Ids.replica_id list
      (** dead from the start of the run (fig. 11 "replica crashed") *)
  | Dark of {
      instance : Rcc_common.Ids.instance_id;
      victims : Rcc_common.Ids.replica_id list;
    }
      (** the instance's primary never sends its proposals to [victims]
          (fig. 11 "replicas in dark") *)
  | Collusion of {
      victim : Rcc_common.Ids.replica_id;
      at_round : Rcc_common.Ids.round;
    }
      (** Figure 12: instance 0's primary skips [victim] for exactly round
          [at_round]; the remaining byzantine replicas each falsely blame a
          non-faulty primary once the victim's view-change appears. *)
  | Client_dos of { instance : Rcc_common.Ids.instance_id }
      (** The instance's primary silently drops client requests (§3.6);
          starved clients defect via instance-change. *)

type exec_mode =
  | Exec_serial
      (** single execute thread, strict f_S(h) order — the ablation
          baseline and the digest-gated default *)
  | Exec_parallel
      (** conflict-aware scheduler over a multi-server execute pool *)

val exec_mode_name : exec_mode -> string

type arrival_process =
  | Poisson  (** exponential inter-arrival gaps (deterministic from seed) *)
  | Uniform  (** fixed inter-arrival gaps *)

val arrival_process_name : arrival_process -> string

type t = {
  protocol : protocol;
  n : int;
  f : int;  (** derived as (n-1)/3 by {!make} *)
  z : int;  (** instances; f+1 for RCC variants, 1 otherwise *)
  batch_size : int;
  clients : int;  (** total logical clients; equal across protocols so closed-loop latencies are comparable *)
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
  exec_threads : int;  (** execute-pool size (parallel mode only) *)
  exec_window : int;  (** max rounds per conflict-analysis window *)
  arrival_rate : float;
      (** offered load in txn/s; 0.0 (the default) selects closed-loop
          clients, anything positive selects open-loop arrivals *)
  arrival_process : arrival_process;
  max_in_flight : int;
      (** open-loop cap on concurrent outstanding requests; [<= 0] means
          one per client *)
  journal : bool;
      (** give every replica a durable write-ahead journal + checkpoint
          snapshots on a simulated disk, and restart-from-disk recovery;
          off by default so fault-free perf digests stay byte-identical *)
  storage_faults : float;
      (** probability each journal record / snapshot write is torn,
          corrupted or lost (applied per mode); 0.0 = honest disks *)
}

val make :
  ?batch_size:int ->
  ?clients:int ->
  ?duration:Rcc_sim.Engine.time ->
  ?warmup:Rcc_sim.Engine.time ->
  ?replica_timeout:Rcc_sim.Engine.time ->
  ?client_timeout:Rcc_sim.Engine.time ->
  ?collusion_wait:Rcc_sim.Engine.time ->
  ?recovery:Rcc_core.Coordinator.recovery_mode ->
  ?use_permutation:bool ->
  ?records:int ->
  ?write_ratio:float ->
  ?theta:float ->
  ?z:int ->
  ?seed:int ->
  ?instance_change_after:int ->
  ?fault:fault ->
  ?exec_mode:exec_mode ->
  ?exec_threads:int ->
  ?exec_window:int ->
  ?arrival_rate:float ->
  ?arrival_process:arrival_process ->
  ?max_in_flight:int ->
  ?journal:bool ->
  ?storage_faults:float ->
  protocol:protocol ->
  n:int ->
  unit ->
  t

val client_instances : t -> int
(** How many targets clients spread over: z for primary-based protocols,
    n for HotStuff (all replicas lead). *)

val total_clients : t -> int

val quorum : t -> Rcc_replica.Client_pool.quorum

val open_loop : t -> bool
(** [arrival_rate > 0]. *)

val client_arrival : t -> Rcc_replica.Client_pool.arrival
(** The pool-level arrival mode this config selects. *)

val jitter : Rcc_sim.Engine.time
(** Bound of the uniform per-message network jitter: 60 µs. *)

val gbps : float
(** Every node's NIC bandwidth, in Gbit/s: 4. *)

val contention_factor : t -> float
(** Thread-count / core-count pressure used to scale CPU costs (§3.1's
    parallelism-vs-contention trade-off). Parallel execution counts its
    pool threads, so adding execute servers on a loaded machine honestly
    prices the extra contention. *)
