(** Primary-side retransmission dedup.

    A client resends a batch when its reply is slow. If the primary that
    already ordered the batch ordered the resend at a fresh slot, the
    batch would execute twice once the first slot's cached reply ages
    past the checkpoint floor. The primary therefore remembers each
    client's last ordered [(digest, slot)] and checks every batch it is
    about to propose against it. The table is the current view's only: an
    instance {!reset}s it whenever it installs a view. *)

type t

val create : unit -> t

val record : t -> Rcc_messages.Batch.t -> seq:Rcc_common.Ids.round -> unit
(** The primary just ordered [batch] at slot [seq]. *)

type decision =
  | Fresh  (** never ordered, or its slot was unwound or replaced *)
  | Reannounce of Rcc_common.Ids.round
      (** still live at this slot: re-send the original order, so replicas
          that missed it catch up and the rest see a duplicate *)
  | Collected
      (** stable and collected: every correct replica executed and
          replied, so there is nothing to order *)

val check : t -> 'a Slot_log.t -> Rcc_messages.Batch.t -> decision
(** What to do with [batch], judged against the primary's slot log. *)

val reset : t -> unit
(** Forget every entry (view install). *)
