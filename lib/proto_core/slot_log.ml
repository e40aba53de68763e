module Engine = Rcc_sim.Engine
module Batch = Rcc_messages.Batch

type 'a slot = {
  round : int;
  mutable batch : Batch.t option;
  mutable digest : string option;
  mutable accepted : bool;
  created_at : Engine.time;
  state : 'a;
}

(* Rounds are dense, so the live window [base, max_seen] lives in a
   power-of-two ring indexed by [round land (capacity - 1)] — the hottest
   lookups (every prepare/commit/accept touches its slot) cost one array
   read instead of a generic Hashtbl probe, and [find_opt] returns the
   stored option box without allocating. Rounds below [base] (stale
   traffic resurrecting a collected slot) fall back to a side table so
   behaviour is identical to the old Hashtbl-backed log. *)
type 'a t = {
  engine : Engine.t;
  init : int -> 'a;
  replica : int;  (* trace identity; -1 when untagged *)
  instance : int;
  mutable ring : 'a slot option array;  (* length is a power of two *)
  mutable base : int;  (* lowest round the ring may hold *)
  stale : (int, 'a slot) Hashtbl.t;  (* resurrected rounds below base *)
  mutable max_seen : int;
  mutable frontier : int;
  mutable last_progress : Engine.time;
}

let create ?(tag = (-1, -1)) ~engine ~init () =
  let replica, instance = tag in
  {
    engine;
    init;
    replica;
    instance;
    ring = Array.make 1024 None;
    base = 0;
    stale = Hashtbl.create 16;
    max_seen = -1;
    frontier = -1;
    last_progress = 0;
  }

let trace t payload =
  Engine.trace t.engine ~replica:t.replica ~instance:t.instance payload

let[@inline] idx t round = round land (Array.length t.ring - 1)

(* Double the ring until [round] fits in the [base .. base+capacity)
   window. Ring positions depend on the capacity mask, so live slots are
   rehomed. *)
let grow t round =
  let cap = ref (Array.length t.ring) in
  while round - t.base >= !cap do
    cap := !cap * 2
  done;
  let ring' = Array.make !cap None in
  let mask' = !cap - 1 in
  for r = t.base to t.max_seen do
    ring'.(r land mask') <- t.ring.(idx t r)
  done;
  t.ring <- ring'

let find_opt t round =
  if round >= t.base then
    if round > t.max_seen then None else t.ring.(idx t round)
  else Hashtbl.find_opt t.stale round

let new_slot t round =
  {
    round;
    batch = None;
    digest = None;
    accepted = false;
    created_at = Engine.now t.engine;
    state = t.init round;
  }

let get t round =
  if round >= t.base then begin
    if round - t.base >= Array.length t.ring then grow t round;
    match t.ring.(idx t round) with
    | Some s -> s
    | None ->
        let s = new_slot t round in
        t.ring.(idx t round) <- Some s;
        if round > t.max_seen then t.max_seen <- round;
        if Engine.tracing t.engine then
          trace t (Rcc_trace.Event.Slot_propose { round });
        s
  end
  else
    match Hashtbl.find_opt t.stale round with
    | Some s -> s
    | None ->
        let s = new_slot t round in
        Hashtbl.replace t.stale round s;
        if Engine.tracing t.engine then
          trace t (Rcc_trace.Event.Slot_propose { round });
        s

let remove t round =
  if round >= t.base then begin
    if round <= t.max_seen then t.ring.(idx t round) <- None
  end
  else Hashtbl.remove t.stale round

let max_seen t = t.max_seen
let frontier t = t.frontier
let touch t = t.last_progress <- Engine.now t.engine

let drain t ~accept =
  let advanced = ref false in
  let continue = ref true in
  while !continue do
    match find_opt t (t.frontier + 1) with
    | Some s when accept s ->
        t.frontier <- t.frontier + 1;
        advanced := true
    | Some _ | None -> continue := false
  done;
  if !advanced then touch t;
  !advanced

let gc_upto t upto =
  (* Never collect past the accept frontier: a slot above it is not
     covered by any stable checkpoint yet, and dropping it would make
     [oldest_incomplete] re-report the round as missing — re-arming
     stall escalation against an innocent primary. *)
  let upto = if upto > t.frontier then t.frontier else upto in
  if Engine.tracing t.engine then
    trace t (Rcc_trace.Event.Checkpoint_stable { upto });
  if upto >= t.base then begin
    let hi = if upto < t.max_seen then upto else t.max_seen in
    for r = t.base to hi do
      t.ring.(idx t r) <- None
    done;
    t.base <- upto + 1
  end;
  if Hashtbl.length t.stale > 0 then
    Hashtbl.filter_map_inplace
      (fun round s -> if round <= upto then None else Some s)
      t.stale

(* Jump the whole log past an installed snapshot: rounds [< round] are
   covered by the transferred state, so they are collected AND the accept
   frontier moves to [round - 1] — unlike [gc_upto], which never advances
   the frontier. Slots at or above [round] (live traffic that arrived
   while this replica lagged) are kept; the ring window invariant holds
   because every live slot below the new base is cleared first. *)
let fast_forward t ~round =
  let upto = round - 1 in
  if upto > t.frontier then begin
    if upto >= t.base then begin
      let hi = if upto < t.max_seen then upto else t.max_seen in
      for r = t.base to hi do
        t.ring.(idx t r) <- None
      done;
      t.base <- upto + 1
    end;
    if Hashtbl.length t.stale > 0 then
      Hashtbl.filter_map_inplace
        (fun r s -> if r <= upto then None else Some s)
        t.stale;
    t.frontier <- upto;
    if t.max_seen < upto then t.max_seen <- upto;
    touch t
  end

(* Speculative rollback retracts, it never discards: the accepted slots
   from [round] up to the frontier become unaccepted and the frontier
   moves back, while every slot keeps its batch and [max_seen] stays. The
   next [drain] re-accepts the suffix, so orders already re-accepted or
   buffered above [round] survive a second rollback below them. The
   inverse of [drain] progress; rounds below [round] (attested at the
   caller by a commit certificate or stable checkpoint) are untouched.
   The stale table only holds rounds below [base], which the caller
   guarantees is at most [round], so it needs no sweep. *)
let unwind t ~round =
  if round <= t.frontier then begin
    let lo = if round > t.base then round else t.base in
    for r = lo to t.frontier do
      match t.ring.(idx t r) with
      | Some s -> s.accepted <- false
      | None -> ()
    done;
    t.frontier <- round - 1;
    touch t
  end

let retained_slots t =
  let n = ref (Hashtbl.length t.stale) in
  Array.iter (function Some _ -> incr n | None -> ()) t.ring;
  !n

let oldest_incomplete t =
  let rec go round =
    if round > t.max_seen then None
    else
      match find_opt t round with
      | Some s when not s.accepted -> Some (round, s.created_at)
      | Some _ -> go (round + 1)
      | None -> Some (round, t.last_progress)
  in
  go (t.frontier + 1)
