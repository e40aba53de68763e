(** Simulated datacenter network.

    Each node owns an egress NIC (a {!Cpu.server} whose job cost is
    transmission time = size / bandwidth); after serialization a message
    propagates for latency + jitter and is handed to the destination's
    registered handler. Per-destination copies of a broadcast each pay
    serialization, so large batches at high fan-out saturate the sender's
    NIC exactly as in the paper's setup.

    Fault injection composes through id-tagged link rules: any number of
    drop, delay-inflation and duplication rules may be active at once (the
    chaos nemesis adds and removes them as its script plays out).

    Node address space is the caller's: the runtime uses [0, n) for
    replicas and [n, n + client_machines) for client machines. *)

type 'msg t

val create :
  Engine.t ->
  ?describe:('msg -> string * int) ->
  nodes:int ->
  latency:Engine.time ->
  jitter:Engine.time ->
  gbps:float ->
  rng:Rcc_common.Rng.t ->
  unit ->
  'msg t
(** [describe] labels messages for tracing as [(kind, instance)]
    (instance [-1] = none); it is only consulted while a tracer is
    attached to the engine. Default [("msg", -1)]. *)

val engine : 'msg t -> Engine.t

val register : 'msg t -> int -> (src:int -> size:int -> 'msg -> unit) -> unit
(** Install the delivery handler for a node. Replaces any previous one. *)

val send : 'msg t -> src:int -> dst:int -> size:int -> 'msg -> unit
(** Transmit one message. Nothing leaves a dead sender; a dead (or
    since-revived) destination discards the message on arrival, but the
    sender still pays NIC serialization and the traffic counters still
    grow — it has no way to know the peer is down. Drop rules suppress
    the transmission entirely. Sending to self delivers after a small
    loopback delay without using the NIC. *)

val set_dead : 'msg t -> int -> bool -> unit
(** A dead node neither sends nor receives (crash fault). Reviving a dead
    node starts a fresh incarnation: messages that were in flight to it
    before the crash are discarded on arrival, and its egress NIC queue
    restarts empty — a restarted process does not inherit the wire. *)

val is_dead : 'msg t -> int -> bool

val incarnation : 'msg t -> int -> int
(** How many times the node has been revived. *)

(** {2 Composable link rules} *)

type rule_id

val add_drop_rule : 'msg t -> (src:int -> dst:int -> 'msg -> bool) -> rule_id
(** Consulted on every send; [true] means drop. All active drop rules are
    OR-ed together. *)

val add_delay_rule : 'msg t -> (src:int -> dst:int -> Engine.time) -> rule_id
(** Extra propagation delay added to matching sends; active delay rules
    accumulate. Negative results are treated as zero. *)

val add_dup_rule : 'msg t -> (src:int -> dst:int -> 'msg -> int) -> rule_id
(** Number of {e extra} copies to transmit (0 = no duplication). Each copy
    pays NIC serialization and draws its own jitter. *)

val remove_rule : 'msg t -> rule_id -> unit
(** Remove a rule by id; unknown ids are ignored. *)

val messages_sent : 'msg t -> int
val bytes_sent : 'msg t -> int
