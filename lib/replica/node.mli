(** Replica pipeline skeleton (§6, Figures 7–8).

    A node owns the paper's thread set as simulated CPU servers: an
    input-thread pool, an optional batch-thread pool (primaries only), one
    worker per instance, and the execute thread (which doubles as the
    coordinator). Protocol builders install the routing function that maps
    parsed messages onto the right server with the right CPU cost. *)

type t

val input_threads : int
(** Input threads parsing received messages: 3, the paper's layout. *)

val output_threads : int
(** Output threads: 3. They take cores (the runtime's contention factor
    counts them) but are not servers: each send's marshalling and MAC
    cost is charged to the sending worker and the NIC serializes it. *)

val batch_threads : int
(** Batch threads on a node that batches client requests: 2. *)

val create :
  engine:Rcc_sim.Engine.t ->
  net:Rcc_messages.Msg.t Rcc_sim.Net.t ->
  costs:Rcc_sim.Costs.t ->
  self:Rcc_common.Ids.replica_id ->
  z:int ->
  has_batchers:bool ->
  ?exec_pool_size:int ->
  unit ->
  t
(** Creates the servers and registers the node's delivery handler with the
    network. Routing starts as a no-op; install it with {!set_route}.
    [exec_pool_size > 0] additionally creates the parallel execute pool
    ({!exec_pool}); the scheduler lane {!exec_server} always exists. *)

val engine : t -> Rcc_sim.Engine.t
val costs : t -> Rcc_sim.Costs.t
val self : t -> Rcc_common.Ids.replica_id
val worker : t -> int -> Rcc_sim.Cpu.server
val exec_server : t -> Rcc_sim.Cpu.server

val exec_pool : t -> Rcc_sim.Cpu.pool option
(** The multi-server execute pool, when the node was created with
    [exec_pool_size > 0] (parallel execution mode). *)

val batchers : t -> Rcc_sim.Cpu.pool option

val halt : t -> unit
(** Permanently silence this node object: inbound deliveries are dropped
    before routing and queued/future sends become no-ops. Used when a
    replica restarts from disk — the successor incarnation re-registers
    the network handler, and halting the orphan guarantees its still-
    scheduled CPU jobs can never speak for the replica again. *)

val halted : t -> bool

val set_route :
  t -> (src:int -> ready:Rcc_sim.Engine.time -> Rcc_messages.Msg.t -> unit) -> unit
(** The route function runs at message arrival; [ready] is when the input
    thread finishes parsing it. The route must submit the message to a
    worker/batcher/exec server with [Cpu.submit_ready ~ready]. *)

val sender :
  t ->
  worker:Rcc_sim.Cpu.server ->
  (?sign:bool ->
  ?size:int ->
  dst:Rcc_common.Ids.replica_id ->
  Rcc_messages.Msg.t ->
  unit)
  * (?sign:bool ->
    ?size:int ->
    ?exclude:(Rcc_common.Ids.replica_id -> bool) ->
    n:int ->
    Rcc_messages.Msg.t ->
    unit)
(** [(send, broadcast)] closures that charge marshalling + authentication
    to [worker] before handing the message to the network. [broadcast]
    sends to all replicas in [0, n) except self and exclusions. [size]
    lets a caller that already computed [Msg.size msg] (for metrics or
    tracing) pass it along instead of recomputing per send. *)

val send_direct : t -> dst:int -> Rcc_messages.Msg.t -> unit
(** Raw network send with no CPU charge; for the execute thread, whose
    response cost is part of the execution job. *)
