(** Array-backed 4-ary min-heap keyed by [(priority, sequence)].

    The sequence number is assigned at insertion time, making extraction
    order deterministic among equal priorities (FIFO among ties). This is
    the event queue of the simulator, so determinism here is load-bearing.

    Storage: the heap itself is three parallel unboxed [int] arrays
    (priority, sequence, and the payload's slot index), so sifting moves
    only ints. Payloads sit in a separate slot array: {!push} writes a
    payload once into a vacant slot, {!pop_min_exn} reads it once and
    resets the slot to the [dummy] element given at creation, and vacant
    slots are recycled through a free-slot stack. Neither {!push} nor the
    {!min_priority}/{!pop_min_exn} pair allocates, and a popped or
    cleared payload is no longer referenced by the heap. *)

type 'a t

val create : ?capacity:int -> dummy:'a -> unit -> 'a t
(** [dummy] fills vacant payload slots (and is what {!clear} resets them
    to, so popped payloads are not retained). It is never returned by the
    accessors unless it was itself pushed. *)

val is_empty : 'a t -> bool

val size : 'a t -> int

val push : 'a t -> priority:int -> 'a -> unit

val min_priority : 'a t -> int
(** Priority of the minimum element, without allocating.
    @raise Invalid_argument on an empty heap. *)

val pop_min_exn : 'a t -> 'a
(** Remove the minimum element and return its payload, without
    allocating. Use with {!min_priority} when the caller needs both.
    @raise Invalid_argument on an empty heap. *)

val pop : 'a t -> (int * 'a) option
(** Remove and return the minimum [(priority, value)]. Allocating
    convenience over {!min_priority}/{!pop_min_exn}. *)

val peek_priority : 'a t -> int option

val clear : 'a t -> unit
