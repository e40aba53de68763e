(* Bounded ring of events, plus a pinned side-store for rare ones.

   Recording is one array store and two integer updates, so a tracer can
   stay attached to hot paths; when the ring wraps, the oldest events are
   overwritten and only the trailing window survives — which is exactly
   what a post-mortem dump wants for the high-volume traffic (spans,
   network sends, per-slot events).

   Rare protocol-level events — primary changes, blames, violations, the
   state-transfer family — are different: a 2 s chaos run records tens of
   thousands of events per simulated second, so a snapshot install at 70%
   of the run would be long evicted by the end. Those events are routed
   to a separate bounded store that never wraps; dumps merge the two
   streams back into time order. *)

type t = {
  capacity : int;
  events : Event.t array;
  mutable next : int;  (* total ring events ever recorded *)
  pinned : Event.t array;  (* rare events, never overwritten *)
  mutable pinned_n : int;
}

let dummy =
  { Event.at = 0; replica = -1; instance = -1; payload = Event.Collusion }

let default_capacity = 65_536

(* Generously above what any scenario emits; if a run somehow exceeds it,
   overflow degrades to ring recording rather than being lost outright. *)
let pinned_capacity = 16_384

(* High-volume payloads stay in the ring; everything else is worth
   pinning. The match is total so a new payload kind must pick a side. *)
let is_rare = function
  | Event.Net_send _ | Event.Net_deliver _ | Event.Span _
  | Event.Slot_propose _ | Event.Slot_accept _ | Event.Slot_exec _
  | Event.Exec_group _ | Event.Exec_conflict _
  | Event.Journal_flush _ | Event.Journal_replay_round _ ->
      false
  | Event.Primary_change _ | Event.Kmal _ | Event.Blame _
  | Event.Contract_sent _ | Event.Contract_adopted _
  | Event.Checkpoint_stable _ | Event.Collusion | Event.Violation _
  | Event.St_gap _ | Event.St_request _ | Event.St_served _
  | Event.St_verified _ | Event.St_installed _ | Event.St_rejected _
  | Event.Rollback_begin _ | Event.Rollback_round _
  | Event.Rollback_complete _ | Event.Journal_snapshot _
  | Event.Journal_fault _ | Event.Journal_truncated _ | Event.Journal_compacted _
  | Event.Journal_replay_begin _ | Event.Journal_replay_complete _ ->
      true

let create ?(capacity = default_capacity) () =
  let capacity = max 1 capacity in
  {
    capacity;
    events = Array.make capacity dummy;
    next = 0;
    pinned = Array.make pinned_capacity dummy;
    pinned_n = 0;
  }

let record t ev =
  if is_rare ev.Event.payload && t.pinned_n < pinned_capacity then begin
    t.pinned.(t.pinned_n) <- ev;
    t.pinned_n <- t.pinned_n + 1
  end
  else begin
    t.events.(t.next mod t.capacity) <- ev;
    t.next <- t.next + 1
  end

let capacity t = t.capacity
let recorded t = t.next + t.pinned_n
let dropped t = max 0 (t.next - t.capacity)
let stored t = min t.next t.capacity + t.pinned_n
let pinned t = t.pinned_n

(* Merge the surviving ring window and the pinned store by timestamp.
   Both are recorded in nondecreasing [at] order, so this is a linear
   two-pointer merge; ring events win ties to preserve the relative
   order of same-instant recordings as closely as possible. *)
let iter t f =
  let n = min t.next t.capacity in
  let first = t.next - n in
  let ring i = t.events.((first + i) mod t.capacity) in
  let ri = ref 0 and pi = ref 0 in
  while !ri < n || !pi < t.pinned_n do
    if
      !pi >= t.pinned_n
      || (!ri < n && (ring !ri).Event.at <= t.pinned.(!pi).Event.at)
    then begin
      f (ring !ri);
      incr ri
    end
    else begin
      f t.pinned.(!pi);
      incr pi
    end
  done

let to_list t =
  let acc = ref [] in
  iter t (fun ev -> acc := ev :: !acc);
  List.rev !acc
