(** Single-threaded CPU resources with FIFO queueing, in virtual time.

    Each replica "thread" of the paper's pipeline (input, batch, worker,
    execute, output, checkpoint — Figs. 7–8) is one {!server}. A server is
    a timestamp [free_at]: submitting work costing [c] at ready-time [r]
    completes at [max(r, free_at) + c], which is exactly FIFO queueing
    semantics with one heap event per job instead of a job queue. The
    queueing delay this produces is the bottleneck behaviour the
    evaluation measures (e.g. the execute-thread ceiling of MultiZ). *)

type server

val server : Engine.t -> ?owner:int -> name:string -> unit -> server
(** [owner] tags the server's trace spans with a node id (default -1 =
    unowned); [name] is the span track label. *)

val submit : server -> cost:Engine.time -> (unit -> unit) -> unit
(** [submit srv ~cost job] enqueues work costing [cost] ns of CPU, ready
    now; [job] runs at the completion time. *)

val submit_ready : server -> ready:Engine.time -> cost:Engine.time -> (unit -> unit) -> unit
(** Like {!submit} but the work cannot start before [ready] (e.g. a
    message that has not arrived yet). [ready] must be >= now. *)

val reserve : server -> ready:Engine.time -> cost:Engine.time -> Engine.time
(** Account for work without scheduling a callback; returns the completion
    time. Used to chain pipeline stages into a single event. *)

val utilization : server -> since:Engine.time -> float
(** Busy fraction of wall time since [since] (clamped to [0, 1]); callers
    should pass the run start. *)

type pool
(** A set of interchangeable servers (e.g. the three input threads) with
    earliest-free dispatch. *)

val pool : Engine.t -> ?owner:int -> name:string -> size:int -> unit -> pool

val pool_submit_ready :
  pool -> ready:Engine.time -> cost:Engine.time -> (unit -> unit) -> unit
(** Earliest-free dispatch of work that cannot start before [ready] —
    the execute pool's entry point: a dependency group is dispatched when
    the conflict scan finishes, not when its acceptances arrived. *)

val pool_reserve : pool -> ready:Engine.time -> cost:Engine.time -> Engine.time
val pool_utilization : pool -> since:Engine.time -> float
(** Mean busy fraction across the pool's servers since [since]. *)
