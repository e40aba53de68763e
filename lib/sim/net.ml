type 'msg rule =
  | Drop of (src:int -> dst:int -> 'msg -> bool)
  | Delay of (src:int -> dst:int -> Engine.time)
  | Duplicate of (src:int -> dst:int -> 'msg -> int)

type rule_id = int

type 'msg t = {
  engine : Engine.t;
  nics : Cpu.server array;
  handlers : (src:int -> size:int -> 'msg -> unit) array;
  dead : bool array;
  incarnations : int array;
  latency : Engine.time;
  jitter : Engine.time;
  ns_per_byte : float;
  rng : Rcc_common.Rng.t;
  describe : 'msg -> string * int;  (* (kind, instance) for tracing *)
  mutable rules : (rule_id * 'msg rule) list;  (* insertion order *)
  (* Compiled views of [rules], split per kind in insertion order and
     rebuilt on every add/remove. [send] consults only these: the common
     no-rules case is three length checks, and with rules installed the
     scans run over flat arrays instead of re-filtering the list with
     fresh closures per send. *)
  mutable drops : (src:int -> dst:int -> 'msg -> bool) array;
  mutable delays : (src:int -> dst:int -> Engine.time) array;
  mutable dups : (src:int -> dst:int -> 'msg -> int) array;
  mutable next_rule_id : int;
  (* Memo of the last NIC serialization computed: broadcasts send the
     same size n-1 times in a row, so the float math runs once per
     distinct size instead of once per copy. *)
  mutable ser_size : int;
  mutable ser_cost : int;
  mutable messages : int;
  mutable bytes : int;
}

let no_handler ~src:_ ~size:_ _ = ()

let create engine ?(describe = fun _ -> ("msg", -1)) ~nodes ~latency ~jitter
    ~gbps ~rng () =
  assert (nodes > 0 && gbps > 0.0);
  {
    engine;
    nics =
      Array.init nodes (fun i ->
          Cpu.server engine ~owner:i ~name:(Printf.sprintf "nic-%d" i) ());
    handlers = Array.make nodes no_handler;
    dead = Array.make nodes false;
    incarnations = Array.make nodes 0;
    latency;
    jitter;
    (* gbps is Gbit/s; 8 bits per byte. *)
    ns_per_byte = 8.0 /. gbps;
    rng;
    describe;
    rules = [];
    drops = [||];
    delays = [||];
    dups = [||];
    next_rule_id = 0;
    ser_size = -1;
    ser_cost = 0;
    messages = 0;
    bytes = 0;
  }

let engine t = t.engine
let register t node handler = t.handlers.(node) <- handler

let set_dead t node dead =
  if t.dead.(node) && not dead then begin
    (* Revival starts a new incarnation: traffic in flight to the old one
       is discarded on arrival and the egress NIC queue restarts empty. *)
    t.incarnations.(node) <- t.incarnations.(node) + 1;
    t.nics.(node) <-
      Cpu.server t.engine ~owner:node
        ~name:(Printf.sprintf "nic-%d.%d" node t.incarnations.(node))
        ()
  end;
  t.dead.(node) <- dead

let is_dead t node = t.dead.(node)
let incarnation t node = t.incarnations.(node)

let recompile t =
  let filter f = Array.of_list (List.filter_map f t.rules) in
  t.drops <- filter (function _, Drop f -> Some f | _ -> None);
  t.delays <- filter (function _, Delay f -> Some f | _ -> None);
  t.dups <- filter (function _, Duplicate f -> Some f | _ -> None)

let add_rule t rule =
  let id = t.next_rule_id in
  t.next_rule_id <- id + 1;
  t.rules <- t.rules @ [ (id, rule) ];
  recompile t;
  id

let add_drop_rule t f = add_rule t (Drop f)
let add_delay_rule t f = add_rule t (Delay f)
let add_dup_rule t f = add_rule t (Duplicate f)

let remove_rule t id =
  t.rules <- List.filter (fun (id', _) -> id' <> id) t.rules;
  recompile t

let messages_sent t = t.messages
let bytes_sent t = t.bytes

let loopback_delay = Engine.us 2

let deliver t ~src ~dst ~size ~epoch msg =
  if (not t.dead.(dst)) && t.incarnations.(dst) = epoch then begin
    (if Engine.tracing t.engine then
       let kind, instance = t.describe msg in
       Engine.trace t.engine ~replica:dst ~instance
         (Rcc_trace.Event.Net_deliver { kind; size; src; dst }));
    t.handlers.(dst) ~src ~size msg
  end

let serialize_cost t size =
  if size <> t.ser_size then begin
    t.ser_size <- size;
    t.ser_cost <- int_of_float (float_of_int size *. t.ns_per_byte)
  end;
  t.ser_cost

(* One transmitted copy: counters, trace, schedule the arrival. *)
let transmit t ~src ~dst ~size ~extra ~epoch msg =
  t.messages <- t.messages + 1;
  t.bytes <- t.bytes + size;
  (if Engine.tracing t.engine then
     let kind, instance = t.describe msg in
     Engine.trace t.engine ~replica:src ~instance
       (Rcc_trace.Event.Net_send { kind; size; src; dst }));
  if src = dst then
    Engine.schedule_after t.engine (loopback_delay + extra) (fun () ->
        deliver t ~src ~dst ~size ~epoch msg)
  else begin
    (* Virtual NIC: serialization queues on the sender's egress; one
       event fires at arrival time. Duplicated copies each pay
       serialization, like a real retransmission would. *)
    let serialized =
      Cpu.reserve t.nics.(src) ~ready:(Engine.now t.engine)
        ~cost:(serialize_cost t size)
    in
    let propagation =
      t.latency
      + (if t.jitter > 0 then Rcc_common.Rng.int t.rng t.jitter else 0)
      + extra
    in
    Engine.schedule_at t.engine (serialized + propagation) (fun () ->
        deliver t ~src ~dst ~size ~epoch msg)
  end

(* A dead *destination* does not stop the send: a real sender cannot know
   the peer is down, so it pays NIC serialization and the traffic counters
   grow; the message is simply discarded on arrival (see [deliver]). Only
   a dead sender transmits nothing.

   With no rules installed (the common case) the send is branch-and-go:
   three empty-array checks, then one [transmit] — the only allocation is
   the arrival event's closure. The rule scans evaluate in insertion
   order with the same short-circuit behaviour as the original list
   passes, so rules drawing from an RNG observe an identical draw
   sequence. *)
let send t ~src ~dst ~size msg =
  if not t.dead.(src) then begin
    if
      Array.length t.drops = 0
      && Array.length t.delays = 0
      && Array.length t.dups = 0
    then transmit t ~src ~dst ~size ~extra:0 ~epoch:t.incarnations.(dst) msg
    else begin
      let drops = t.drops in
      let rec any_drop i =
        i < Array.length drops
        && ((Array.unsafe_get drops i) ~src ~dst msg || any_drop (i + 1))
      in
      if not (any_drop 0) then begin
        let delays = t.delays in
        let rec sum_delay i acc =
          if i < Array.length delays then
            let d = (Array.unsafe_get delays i) ~src ~dst in
            sum_delay (i + 1) (acc + if d < 0 then 0 else d)
          else acc
        in
        let extra = sum_delay 0 0 in
        let dups = t.dups in
        let rec sum_dup i acc =
          if i < Array.length dups then
            sum_dup (i + 1)
              (let d = (Array.unsafe_get dups i) ~src ~dst msg in
               acc + if d < 0 then 0 else d)
          else acc
        in
        let copies = 1 + sum_dup 0 0 in
        let epoch = t.incarnations.(dst) in
        for _ = 1 to copies do
          transmit t ~src ~dst ~size ~extra ~epoch msg
        done
      end
    end
  end
