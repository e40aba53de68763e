(** Seeded scenario fuzzer: random-but-reproducible fault schedules.

    Every run is a pure function of its scenario seed — the same seed
    always produces the same script, workload and verdict, so a failure
    report is reproducible from the seed alone. Scenario seeds derive
    deterministically from [master seed × run index].

    Generated scripts are fair: at most one victim replica is faulted
    (n >= 4 tolerates f >= 1), scripted drops only affect the victim's
    links, and every fault heals by ~60% of the run so liveness checks
    have tail time to recover in. *)

type failure = {
  run_index : int;
  protocol : Rcc_runtime.Config.protocol;
  scenario_seed : int;
  outcome : Runner.outcome;
  minimized : Script.t;  (** greedily one-event-minimised failing script *)
}

type summary = {
  master_seed : int;
  runs : int;  (** per protocol *)
  protocols : Rcc_runtime.Config.protocol list;
  passes : int;
  failures : failure list;
}

val scenario_seed : master:int -> run:int -> int

val config_for :
  ?exec_mode:Rcc_runtime.Config.exec_mode ->
  ?exec_threads:int ->
  ?journal:bool ->
  Rcc_runtime.Config.protocol ->
  n:int ->
  duration:Rcc_sim.Engine.time ->
  seed:int ->
  Rcc_runtime.Config.t
(** The cluster every scenario runs on: batches of 10, 40 clients, 5 000
    records, a 250 ms replica and 400 ms client timeout, sized so a
    primary replacement and client retries fit inside a ~2 s run. *)

val gen_script :
  ?journal:bool ->
  seed:int -> n:int -> duration:Rcc_sim.Engine.time -> unit -> Script.t
(** The fault schedule for one scenario, derived from [seed] alone.
    [journal] (default false) unlocks the storage episode families —
    power-failure restart-from-disk, lying-disk recovery, staggered
    restart storms; off, the generator's random stream is exactly the
    historical one, so fixed-seed scripts stay byte-identical. *)

val run_one :
  ?canary:bool ->
  ?trace_path:string ->
  ?trace_ring:int ->
  ?exec_mode:Rcc_runtime.Config.exec_mode ->
  ?exec_threads:int ->
  ?journal:bool ->
  protocol:Rcc_runtime.Config.protocol ->
  n:int ->
  duration:Rcc_sim.Engine.time ->
  scenario_seed:int ->
  unit ->
  Runner.outcome
(** One scenario, fully determined by [scenario_seed]. [trace_path] /
    [trace_ring] are forwarded to {!Runner.run}. *)

val fuzz :
  ?exec_mode:Rcc_runtime.Config.exec_mode ->
  ?exec_threads:int ->
  ?protocols:Rcc_runtime.Config.protocol list ->
  ?n:int ->
  ?duration:Rcc_sim.Engine.time ->
  ?canary:bool ->
  ?journal:bool ->
  seed:int ->
  runs:int ->
  unit ->
  summary
(** [runs] scenarios per protocol (default MultiP and MultiZ, n = 4,
    2 s of simulated time each). Failing scenarios are re-run through
    greedy one-event removal to minimise the script before reporting. *)

val pp_summary : Format.formatter -> summary -> unit
(** Deterministic, line-oriented report; identical seeds produce
    byte-identical output. Failures include the minimised script and
    the [--scenario-seed] needed to reproduce them. *)
