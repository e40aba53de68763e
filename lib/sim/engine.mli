(** Discrete-event simulation engine.

    Time is simulated nanoseconds carried in an OCaml [int] (63 bits spans
    ~292 simulated years). Events with equal timestamps fire in insertion
    order, so runs are fully deterministic.

    There is one scheduling primitive: push a closure to run at a time
    ({!schedule_at}, {!schedule_after}). A scheduled event cannot be
    cancelled; a component that may no longer want it checks its own
    state when it fires (the client pool's per-client generation, the
    coordinator's armed flag). *)

type time = int
(** Simulated nanoseconds since the start of the run. *)

val ns : int -> time
val us : int -> time
val ms : int -> time
val s : int -> time
val of_seconds : float -> time
val to_seconds : time -> float

type t

val create : unit -> t

val now : t -> time

val set_tracer : t -> Rcc_trace.Recorder.t -> unit
(** Attach a trace recorder. Simulation components (network, CPU
    servers) and everything holding an engine emit structured events
    into it; with no tracer attached the hooks cost one option check. *)

val tracer : t -> Rcc_trace.Recorder.t option

val tracing : t -> bool
(** [tracer t <> None] — cheap guard so hot paths skip building event
    payloads when tracing is off. *)

val trace :
  t -> replica:int -> instance:int -> Rcc_trace.Event.payload -> unit
(** Record an event stamped with the current simulated time. No-op
    without a tracer; callers on hot paths should still guard with
    {!tracing} to avoid allocating the payload. *)

val schedule_at : t -> time -> (unit -> unit) -> unit
(** Schedule an event. Scheduling in the past raises [Invalid_argument]. *)

val schedule_after : t -> time -> (unit -> unit) -> unit
(** [schedule_after t d f] is [schedule_at t (now t + max 0 d) f]. *)

val run : t -> until:time -> unit
(** Process events in timestamp order until the queue is empty or the next
    event is after [until]. [now] is left at [until] (or at the last event
    if the queue drained first — callers can keep scheduling and re-run). *)

val events_processed : t -> int
(** Total events executed; used by the engine microbench. *)
