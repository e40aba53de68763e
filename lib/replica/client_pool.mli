(** Simulated clients (§7.2's up-to-1M clients on client machines).

    Per-client state lives in flat parallel arrays (a handful of words
    per client), so pools of 100K–1M clients fit comfortably. Two load
    modes:

    - {b Closed loop} (the default, and the paper's §7 methodology): each
      logical client keeps exactly one batched request outstanding,
      sending the next the moment the previous completes. The perf
      digests and the golden report pins fix its event schedule.
    - {b Open loop} ([Open_loop]): requests arrive at a configured
      offered load (txn/s) under a deterministic Poisson or uniform
      process, each arrival claiming the longest-idle client. Arrivals
      beyond [max_in_flight] (or when every client is busy) are counted
      as drops, not queued.

    Both modes time a request out the same way: one engine event per
    request, scheduled when it is sent (and again on each resend),
    firing exactly [request_timeout] later and ignored if the request
    has completed by then.

    Requests go to the primary of the client's assigned instance (§3.1
    client-replica mapping: client [c] is served by instance [c mod z])
    and wait for a completion quorum:

    - [Majority_fplus1] — PBFT / MultiP / HotStuff: f+1 matching responses.
    - [All_n_speculative] — Zyzzyva / MultiZ: n matching speculative
      responses; on timeout with at least 2f+1 matching, fall back to the
      COMMIT-CERTIFICATE phase and wait for 2f+1 LOCAL-COMMIT acks.

    The 15-second client timeout (§7.5) is what collapses the
    Zyzzyva-family throughput under failures. Clients stuck past
    [instance_change_after] resends switch instances (§3.6). *)

type quorum = Majority_fplus1 | All_n_speculative
type arrival_process = Poisson | Uniform

type arrival =
  | Closed_loop
  | Open_loop of {
      rate : float;  (** offered load, txn/s across the whole pool *)
      process : arrival_process;
      max_in_flight : int;
          (** cap on concurrent outstanding requests; [<= 0] means one
              per client (the closed-loop ceiling) *)
    }

type config = {
  n : int;
  f : int;
  z : int;
  clients : int;
  machines : int;  (** client machines = network nodes *)
  batch_size : int;
  quorum : quorum;
  request_timeout : Rcc_sim.Engine.time;
  instance_change_after : int;  (** resends before switching instance; 0 disables *)
  first_node : int;  (** first client-machine node id on the network *)
  records : int;
  write_ratio : float;
  theta : float;
  seed : int;
  arrival : arrival;
}

type open_loop_stats = {
  offered_batches : int;  (** arrival events fired (injected + dropped) *)
  injected_batches : int;
  dropped_batches : int;  (** shed at the in-flight cap / all clients busy *)
  queue_p50 : float;  (** in-flight depth percentiles, sampled per arrival *)
  queue_p99 : float;
  max_depth : int;
}

type t

val create :
  engine:Rcc_sim.Engine.t ->
  net:Rcc_messages.Msg.t Rcc_sim.Net.t ->
  keychain:Rcc_crypto.Keychain.t ->
  metrics:Metrics.t ->
  primary_of_instance:(Rcc_common.Ids.instance_id -> Rcc_common.Ids.replica_id) ->
  config ->
  t
(** Registers the client machines' delivery handlers. *)

val start : t -> unit
(** Closed loop: every client sends its first request (staggered over the
    first millisecond). Open loop: the arrival process starts ticking. *)

val stop : t -> unit
(** Stop injecting load: closed-loop clients send no next request,
    open-loop arrivals cease, and pending retry timers become no-ops.
    Completions of already-issued requests are still recorded. *)

val completed_batches : t -> int
val instance_changes : t -> int

val requests_sent : t -> int
(** Total client requests put on the network, including resends. The
    chaos runner samples this at [stop] to assert the drain phase is
    injection-free. *)

val open_loop_stats : t -> open_loop_stats option
(** [None] for closed-loop pools. *)

val client_instance : t -> Rcc_common.Ids.client_id -> Rcc_common.Ids.instance_id
(** Current instance assignment (visible for the DoS-resolution tests). *)
