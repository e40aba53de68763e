open Rcc_common.Ids
module Engine = Rcc_sim.Engine
module Msg = Rcc_messages.Msg
module Snapshot = Rcc_storage.Snapshot
module Event = Rcc_trace.Event

type hooks = {
  n : int;
  f : int;
  self : replica_id;
  engine : Engine.t;
  timeout : Engine.time;
  checkpoint_interval : int;
  materialized : bool;
  primaries : replica_id list;
  send : dst:replica_id -> Msg.t -> unit;
  broadcast : Msg.t -> unit;
  boundaries : unit -> Snapshot.boundary list;
  blocks_prefix : upto:round -> Rcc_storage.Block.t array;
  executed_upto : unit -> round;
  attesters : seq:round -> replica_id list;
  corrupt_reply : unit -> bool;
  install : Snapshot.t -> attesters:replica_id list -> unit;
}

type stats = {
  installs : int;
  rejects : int;
  rounds_skipped : int;
  bytes_in : int;
  bytes_out : int;
}

(* One distinct (seq, head, kv) triple seen among offers, with the
   replicas standing behind it. f+1 of them means at least one correct
   replica attests the triple. *)
type offer = {
  o_seq : round;
  o_head : string;
  o_kv : string;
  mutable o_srcs : replica_id list;  (* distinct offerers, newest first *)
  mutable o_attesters : replica_id list;  (* supporting checkpoint evidence *)
}

type fetch = {
  fx_seq : round;
  fx_head : string;
  fx_kv : string;
  fx_attesters : replica_id list;
  mutable fx_candidates : replica_id list;  (* donors not yet tried *)
  mutable fx_donor : replica_id;
  mutable fx_started : Engine.time;
}

type probing = {
  mutable pr_started : Engine.time;
  mutable pr_offers : offer list;
}

type phase = Idle | Probing of probing | Fetching of fetch

type t = {
  hooks : hooks;
  mutable phase : phase;
  mutable last_exec : round;
  mutable last_change : Engine.time;
  mutable installs : int;
  mutable rejects : int;
  mutable rounds_skipped : int;
  mutable bytes_in : int;
  mutable bytes_out : int;
}

let create hooks =
  {
    hooks;
    phase = Idle;
    last_exec = -1;
    last_change = Engine.now hooks.engine;
    installs = 0;
    rejects = 0;
    rounds_skipped = 0;
    bytes_in = 0;
    bytes_out = 0;
  }

let stats t =
  {
    installs = t.installs;
    rejects = t.rejects;
    rounds_skipped = t.rounds_skipped;
    bytes_in = t.bytes_in;
    bytes_out = t.bytes_out;
  }

let enabled t = t.hooks.checkpoint_interval > 0

let trace t payload =
  if Engine.tracing t.hooks.engine then
    Engine.trace t.hooks.engine ~replica:t.hooks.self ~instance:(-1) payload

let on_executed t ~round =
  if round > t.last_exec then begin
    t.last_exec <- round;
    t.last_change <- Engine.now t.hooks.engine
  end

(* --- requester side --------------------------------------------------- *)

let probe t =
  let now = Engine.now t.hooks.engine in
  t.phase <- Probing { pr_started = now; pr_offers = [] };
  let frontier = t.hooks.executed_upto () + 1 in
  trace t (Event.St_request { seq = frontier; fetch = false });
  t.hooks.broadcast (Msg.Snapshot_request { sr_seq = frontier; fetch = false })

let send_fetch t (fx : fetch) =
  fx.fx_started <- Engine.now t.hooks.engine;
  trace t (Event.St_request { seq = fx.fx_seq; fetch = true });
  t.hooks.send ~dst:fx.fx_donor
    (Msg.Snapshot_request { sr_seq = fx.fx_seq; fetch = true })

let next_donor t (fx : fetch) =
  match fx.fx_candidates with
  | donor :: rest ->
      fx.fx_candidates <- rest;
      fx.fx_donor <- donor;
      send_fetch t fx
  | [] ->
      (* Offerers exhausted; back to idle — the next stalled tick
         re-probes from scratch. *)
      t.phase <- Idle

let reject t (fx : fetch) ~donor ~reason =
  t.rejects <- t.rejects + 1;
  trace t (Event.St_rejected { seq = fx.fx_seq; donor; reason });
  next_donor t fx

(* Fetch once some (seq, head, kv) triple has f+1 distinct offerers and
   covers at least one checkpoint interval we lack — installing anything
   closer is not worth the payload; ordinary contract recovery covers it. *)
let try_begin_fetch t offers =
  let executed = t.hooks.executed_upto () in
  let qualifying =
    List.filter
      (fun o ->
        List.length o.o_srcs >= t.hooks.f + 1
        && o.o_seq >= executed + 1 + t.hooks.checkpoint_interval
        && ((not t.hooks.materialized) || o.o_kv <> ""))
      offers
  in
  match qualifying with
  | [] -> ()
  | first :: rest -> (
      let best =
        List.fold_left (fun a b -> if b.o_seq > a.o_seq then b else a) first rest
      in
      trace t
        (Event.St_gap { behind = best.o_seq - 1 - executed; target = best.o_seq });
      match List.rev best.o_srcs (* arrival order *) with
      | [] -> ()
      | donor :: candidates ->
          let fx =
            {
              fx_seq = best.o_seq;
              fx_head = best.o_head;
              fx_kv = best.o_kv;
              fx_attesters =
                List.sort_uniq compare (best.o_srcs @ best.o_attesters);
              fx_candidates = candidates;
              fx_donor = donor;
              fx_started = Engine.now t.hooks.engine;
            }
          in
          t.phase <- Fetching fx;
          send_fetch t fx)

let on_offer t ~src ~sp_seq ~sp_head ~sp_kv ~sp_attesters =
  match t.phase with
  | Probing p ->
      let o =
        match
          List.find_opt
            (fun o ->
              o.o_seq = sp_seq
              && String.equal o.o_head sp_head
              && String.equal o.o_kv sp_kv)
            p.pr_offers
        with
        | Some o -> o
        | None ->
            let o =
              {
                o_seq = sp_seq;
                o_head = sp_head;
                o_kv = sp_kv;
                o_srcs = [];
                o_attesters = [];
              }
            in
            p.pr_offers <- o :: p.pr_offers;
            o
      in
      if not (List.mem src o.o_srcs) then o.o_srcs <- src :: o.o_srcs;
      if sp_attesters <> [] then
        o.o_attesters <- List.sort_uniq compare (sp_attesters @ o.o_attesters);
      try_begin_fetch t p.pr_offers
  | Idle | Fetching _ -> ()

let on_full_reply t ~src ~sp_seq blob =
  match t.phase with
  | Fetching fx when fx.fx_donor = src && fx.fx_seq = sp_seq && blob = "" ->
      reject t fx ~donor:src ~reason:"not held"
  | Fetching fx when fx.fx_donor = src && fx.fx_seq = sp_seq -> begin
      t.bytes_in <- t.bytes_in + String.length blob;
      match Snapshot.decode blob with
      | Error e -> reject t fx ~donor:src ~reason:("decode: " ^ e)
      | Ok snap -> (
          match Snapshot.verify ~primaries:t.hooks.primaries snap with
          | Error e ->
              reject t fx ~donor:src ~reason:("chain: " ^ e)
          | Ok head ->
              if not (String.equal head fx.fx_head) then
                reject t fx ~donor:src ~reason:"head mismatch"
              else if
                not (String.equal (Snapshot.kv_digest snap.Snapshot.kv) fx.fx_kv)
              then reject t fx ~donor:src ~reason:"kv digest mismatch"
              else begin
                trace t (Event.St_verified { seq = snap.Snapshot.seq });
                (* Ordinary recovery may have caught us up while the blob
                   was in flight; install only if it still advances us. *)
                let gap = snap.Snapshot.seq - 1 - t.hooks.executed_upto () in
                if gap > 0 then begin
                  t.hooks.install snap ~attesters:fx.fx_attesters;
                  t.installs <- t.installs + 1;
                  t.rounds_skipped <- t.rounds_skipped + gap;
                  trace t
                    (Event.St_installed
                       {
                         seq = snap.Snapshot.seq;
                         rounds = gap;
                         bytes = String.length blob;
                       })
                end;
                t.phase <- Idle;
                on_executed t ~round:(t.hooks.executed_upto ())
              end)
    end
  | Fetching _ | Probing _ | Idle -> ()

(* --- donor side ------------------------------------------------------- *)

let on_offer_probe t ~src ~sr_seq =
  match t.hooks.boundaries () with
  | b :: _ when b.b_seq > sr_seq ->
      t.hooks.send ~dst:src
        (Msg.Snapshot_reply
           {
             sp_seq = b.b_seq;
             sp_head = b.b_head;
             sp_kv = Lazy.force b.b_kv_digest;
             sp_attesters = t.hooks.attesters ~seq:b.b_seq;
             sp_payload = None;
           })
  | _ -> ()

(* Flip a byte every ~1/64th of the blob rather than one byte total: a
   single flip can land in a field excluded from block identity
   (certificate digests, primary sets) and sail through verification,
   which would make the corruption a no-op instead of an attack. *)
let corrupt blob =
  let b = Bytes.of_string blob in
  let len = Bytes.length b in
  let step = max 1 (len / 64) in
  let i = ref (step / 2) in
  while !i < len do
    Bytes.set b !i (Char.chr (Char.code (Bytes.get b !i) lxor 0xff));
    i := !i + step
  done;
  Bytes.unsafe_to_string b

(* An empty payload: this donor cannot serve [sr_seq], so the requester
   fails over now instead of waiting out its per-donor timeout. *)
let refuse t ~src ~sr_seq =
  t.hooks.send ~dst:src
    (Msg.Snapshot_reply
       {
         sp_seq = sr_seq;
         sp_head = "";
         sp_kv = "";
         sp_attesters = [];
         sp_payload = Some "";
       })

let on_fetch t ~src ~sr_seq =
  match
    List.find_opt
      (fun (b : Snapshot.boundary) -> b.b_seq = sr_seq)
      (t.hooks.boundaries ())
  with
  | None -> refuse t ~src ~sr_seq  (* boundary rotated out *)
  | Some b ->
      let blocks = t.hooks.blocks_prefix ~upto:b.b_seq in
      (* A donor that itself installed a snapshot may hold a ledger
         shorter than its boundary claims only transiently; never serve a
         partial prefix. *)
      if Array.length blocks <> b.b_seq then refuse t ~src ~sr_seq
      else begin
        let blob = Snapshot.encode_boundary b ~blocks in
        let blob = if t.hooks.corrupt_reply () then corrupt blob else blob in
        t.bytes_out <- t.bytes_out + String.length blob;
        trace t
          (Event.St_served { seq = b.b_seq; bytes = String.length blob; dst = src });
        t.hooks.send ~dst:src
          (Msg.Snapshot_reply
             {
               sp_seq = b.b_seq;
               sp_head = b.b_head;
               sp_kv = Lazy.force b.b_kv_digest;
               sp_attesters = t.hooks.attesters ~seq:b.b_seq;
               sp_payload = Some blob;
             })
      end

(* --- drivers ---------------------------------------------------------- *)

let observe_checkpoint t ~seq =
  if enabled t then
    match t.phase with
    | Idle ->
        (* Checkpoint votes more than two intervals past our frontier
           cannot be explained by ordinary pipeline skew: the cluster
           moved on without us. Probe now instead of waiting out the
           stall timeout. *)
        if seq > t.hooks.executed_upto () + (2 * t.hooks.checkpoint_interval)
        then probe t
    | Probing _ | Fetching _ -> ()

let tick t =
  if enabled t then begin
    let now = Engine.now t.hooks.engine in
    match t.phase with
    | Idle ->
        if now - t.last_change > t.hooks.timeout then begin
          (* Also throttles: a partitioned replica whose probes vanish
             re-probes once per timeout, not once per tick. *)
          t.last_change <- now;
          probe t
        end
    | Probing p -> if now - p.pr_started > t.hooks.timeout then t.phase <- Idle
    | Fetching fx ->
        if now - fx.fx_started > t.hooks.timeout then
          reject t fx ~donor:fx.fx_donor ~reason:"timeout"
  end

let on_msg t ~src msg =
  if enabled t then
    match msg with
    | Msg.Snapshot_request { sr_seq; fetch = false } ->
        on_offer_probe t ~src ~sr_seq
    | Msg.Snapshot_request { sr_seq; fetch = true } -> on_fetch t ~src ~sr_seq
    | Msg.Snapshot_reply { sp_seq; sp_head; sp_kv; sp_attesters; sp_payload = None }
      ->
        on_offer t ~src ~sp_seq ~sp_head ~sp_kv ~sp_attesters
    | Msg.Snapshot_reply { sp_seq; sp_payload = Some blob; _ } ->
        on_full_reply t ~src ~sp_seq blob
    | _ -> ()
