module Batch = Rcc_messages.Batch

type t = (Rcc_common.Ids.client_id, string * int) Hashtbl.t

let create () = Hashtbl.create 64

let record t (batch : Batch.t) ~seq =
  Hashtbl.replace t batch.Batch.client (batch.Batch.digest, seq)

type decision = Fresh | Reannounce of Rcc_common.Ids.round | Collected

let check t log (batch : Batch.t) =
  match Hashtbl.find_opt t batch.Batch.client with
  | Some (digest, seq) when String.equal digest batch.Batch.digest -> (
      match Slot_log.find_opt log seq with
      | Some { Slot_log.batch = Some b; _ } when String.equal b.Batch.digest digest
        ->
          Reannounce seq
      | None when seq <= Slot_log.frontier log -> Collected
      | Some _ | None -> Fresh)
  | Some _ | None -> Fresh

let reset t = Hashtbl.reset t
