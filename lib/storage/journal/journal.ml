module Engine = Rcc_sim.Engine
module Cpu = Rcc_sim.Cpu
module Costs = Rcc_sim.Costs
module Batch = Rcc_messages.Batch
module Wire = Rcc_common.Wire
module Acceptance = Rcc_replica.Acceptance
module Exec = Rcc_replica.Exec

let record_magic = "RJL1"
let snap_magic = "RJS1"
let checksum_len = 8
let max_body = 16_777_216

(* Group-commit policy: flush at most [flush_interval] after the first
   buffered record, or immediately once [flush_bytes] accumulate. *)
let flush_interval = Engine.us 200
let flush_bytes = 65_536

(* --- record layout -------------------------------------------------------

   [magic | kind | u64 body length | checksum | body]. The checksum is an
   XXH64 ([Xxh64]), stored big-endian in [checksum_len] bytes, over the
   body minus its payload spans ([payload_spans]): a round record's
   batches keep their encoded txns outside it, because each batch's
   stored digest is already a SHA-256 over exactly those bytes
   ([Batch.digest_of_txns]), and [scan] checks that binding instead.
   Every other byte of every record, digests and signatures included, is
   under the checksum. An honest disk always passes: a batch with txns
   was built by [Batch.create], which computed its digest from them, and
   a null batch has no txns.

   The checksum is not cryptographic because it need not be: the disk's
   faults are random tears, bit flips and lost writes, which a 64-bit
   hash misses with probability 2^-64, and nothing adversarial writes to
   a replica's own disk. What other replicas attest or sign (batch
   digests, the payload binding, block hashes, chain heads, the KV
   digest in offers) stays SHA-256. *)

let header_len = String.length record_magic + 1 + 8 + checksum_len
let snap_header_len = String.length snap_magic + 8 + checksum_len
let max_list = 1_000_000
let max_slots = 10_000

(* The payload spans of the body at [s.[off .. off + len - 1]], in body
   order: one per batch with txns in a round record, none in the other
   kinds. Walks the layout [round_record] writes without decoding a txn;
   raises [Wire.Malformed] where it does not parse. The writer never
   walks it: it stores each payload by reference beside the framing
   ([round_record]), so its checksum is over the framing as written. *)
let payload_spans kind s ~off ~len =
  if kind <> 'R' then []
  else begin
    let r = Wire.reader s ~pos:off ~limit:(off + len) in
    let skip_int_list () =
      Wire.skip r (8 * Wire.count r ~max:max_list "list length")
    in
    Wire.skip r 8 (* round *);
    skip_int_list () (* primaries *);
    let spans = ref [] in
    for _ = 1 to Wire.count r ~max:max_slots "slot count" do
      Wire.skip r 9 (* instance, speculative flag *);
      skip_int_list () (* cert *);
      let sp = Batch.span r in
      if sp.Batch.p_len > 0 then spans := sp :: !spans
    done;
    List.rev !spans
  end

(* The checksum of the body at [s.[off .. off + len - 1]] less [spans]:
   XXH64 over the rest as one stream. One scratch state, reset per use:
   the simulator is single-threaded and this never calls out. *)
let sum = Xxh64.create ()

let checksum s ~off ~len spans =
  Xxh64.reset sum;
  let rest =
    List.fold_left
      (fun pos (sp : Batch.span) ->
        Xxh64.update_sub sum s pos (sp.p_off - pos);
        sp.p_off + sp.p_len)
      off spans
  in
  Xxh64.update_sub sum s rest (off + len - rest);
  Xxh64.finalize sum

let payload_bound s (sp : Batch.span) =
  let ctx = Rcc_crypto.Sha256.init () in
  Rcc_crypto.Sha256.update_sub ctx s sp.p_off sp.p_len;
  let d = Rcc_crypto.Sha256.finalize ctx in
  sp.d_len = String.length d && String.equal d (String.sub s sp.d_off sp.d_len)

(* --- record encoding ---------------------------------------------------- *)

(* [frame kind ~len ~spliced fill]: the framing of a record whose body
   holds [len] bytes of its own, which [fill b off] writes at [off], and
   [spliced] bytes of payloads stored beside it. One buffer of the
   framing's exact size; its checksum is over the framing body, which is
   the body minus its payload spans. *)
let frame kind ~len ~spliced fill =
  let b = Bytes.create (header_len + len) in
  let off =
    Wire.put_raw b record_magic 0
    |> Wire.put_byte b kind
    |> Wire.put_int b (len + spliced)
  in
  let stop = fill b (off + checksum_len) in
  assert (stop = header_len + len);
  let s = Bytes.unsafe_to_string b in
  Bytes.set_int64_be b off (checksum s ~off:header_len ~len []);
  s

let round_record ~round ~primaries (ordered : Acceptance.t array) =
  (* round, primaries, slot count; per slot instance, speculative flag,
     certificate and batch. Each batch's txns are encoded once, into its
     cached payload, which every replica's record holds by reference:
     the framing here is the batch record less its txns, and the payload
     is spliced back in where [Batch.write] would have put it. *)
  let payloads =
    Array.map (fun (a : Acceptance.t) -> Batch.payload a.batch) ordered
  in
  let len =
    Array.fold_left
      (fun acc (a : Acceptance.t) ->
        acc + 9 + Wire.int_list_size a.cert + Batch.framing_size a.batch)
      (8 + Wire.int_list_size primaries + 8)
      ordered
  in
  let spliced =
    Array.fold_left (fun acc p -> acc + String.length p) 0 payloads
  in
  let at = Array.make (Array.length ordered) 0 in
  let framing =
    frame 'R' ~len ~spliced (fun b off ->
        let off =
          Wire.put_int b round off
          |> Wire.put_int_list b primaries
          |> Wire.put_int b (Array.length ordered)
        in
        let off = ref off in
        Array.iteri
          (fun i (a : Acceptance.t) ->
            let o =
              Wire.put_int b a.instance !off
              |> Wire.put_bool b a.speculative
              |> Wire.put_int_list b a.cert
            in
            at.(i) <- o + Batch.payload_offset;
            off := Batch.write_framing b a.batch o)
          ordered;
        !off)
  in
  Sim_disk.spliced ~frame:framing ~at payloads

let int_record kind v =
  Sim_disk.flat (frame kind ~len:8 ~spliced:0 (fun b -> Wire.put_int b v))

let view_record primaries =
  Sim_disk.flat
    (frame 'V' ~len:(Wire.int_list_size primaries) ~spliced:0 (fun b ->
         Wire.put_int_list b primaries))

(* The round compaction compares a record against, read from its
   framing: a round record's round, a stable record's floor, a rollback
   record's frontier. View records never hold a replay up, so they carry
   [-1]. *)
let record_round record =
  match record.[String.length record_magic] with
  | 'R' | 'A' | 'B' -> Int64.to_int (String.get_int64_be record header_len)
  | _ -> -1

(* --- snapshot slots ------------------------------------------------------ *)

(* The snapshot a slot blob holds, if its framing checksum, decode and
   chain verification against the genesis [primaries] all pass. *)
let slot_snapshot ~primaries blob =
  let r = Wire.reader blob ~pos:0 ~limit:(String.length blob) in
  match
    Wire.magic r snap_magic;
    let len = Wire.int r in
    let stored = r.pos in
    Wire.skip r checksum_len;
    if
      len = r.limit - r.pos
      && Int64.equal (String.get_int64_be blob stored)
           (checksum blob ~off:r.pos ~len [])
    then Rcc_storage.Snapshot.decode (String.sub blob r.pos len)
    else Error "bad slot"
  with
  | Ok snap -> (
      match Rcc_storage.Snapshot.verify ~primaries snap with
      | Ok _ -> Some snap
      | Error _ -> None)
  | Error _ | (exception Wire.Malformed _) -> None

(* --- writer ------------------------------------------------------------- *)

type t = {
  engine : Engine.t;
  costs : Costs.t;
  disk : Sim_disk.t;
  self : Rcc_common.Ids.replica_id;
  primaries : Rcc_common.Ids.replica_id list option;
      (* genesis configuration slots are read back against *)
  io : Cpu.server;
  mutable pending : Sim_disk.record list;  (* newest first *)
  mutable pending_records : int;
  mutable pending_bytes : int;
  mutable pending_hi : int;  (* highest round in the pending buffer *)
  mutable pending_floor : int;  (* highest stable floor buffered *)
  mutable pending_rollback : int;  (* lowest rollback frontier buffered *)
  mutable flush_scheduled : bool;
  mutable halted : bool;
  mutable last_primaries : Rcc_common.Ids.replica_id list;
  mutable appends : int;
  mutable flushes : int;
  mutable bytes_flushed : int;
  mutable snapshots_written : int;
  mutable durable : int;
  mutable durable_floor : int;
}

let attach ~engine ~costs ~disk ~self ?primaries () =
  {
    engine;
    costs;
    disk;
    self;
    primaries;
    io = Cpu.server engine ~owner:self ~name:(Printf.sprintf "r%d-disk" self) ();
    pending = [];
    pending_records = 0;
    pending_bytes = 0;
    pending_hi = -1;
    pending_floor = -1;
    pending_rollback = max_int;
    flush_scheduled = false;
    halted = false;
    last_primaries = [];
    appends = 0;
    flushes = 0;
    bytes_flushed = 0;
    snapshots_written = 0;
    durable = -1;
    durable_floor = -1;
  }

let io_cost t nbytes =
  t.costs.Costs.fsync
  + int_of_float (t.costs.Costs.disk_per_byte *. float_of_int nbytes)

let trace_new_faults t before =
  if Engine.tracing t.engine then begin
    let log = Sim_disk.fault_log t.disk in
    List.iteri
      (fun i kind ->
        if i >= before then
          Engine.trace t.engine ~replica:t.self ~instance:(-1)
            (Rcc_trace.Event.Journal_fault { kind }))
      log
  end

(* Drop the area below the anchor, the newest verified slot no rollback
   can reach: its seq is at most a stable floor this writer made
   durable, and rollbacks never go below the stable floor. Recovery
   installs that slot or a newer one, and skips every round below it. *)
let compact t =
  let below = Sim_disk.promote_anchor t.disk ~floor:t.durable_floor in
  let dropped = Sim_disk.compact t.disk ~below in
  if dropped > 0 && Engine.tracing t.engine then
    Engine.trace t.engine ~replica:t.self ~instance:(-1)
      (Rcc_trace.Event.Journal_compacted { below; dropped_bytes = dropped })

let flush t =
  if (not t.halted) && t.pending_records > 0 then begin
    let records = List.rev t.pending in
    let nrec = t.pending_records in
    let nbytes = t.pending_bytes in
    let hi = t.pending_hi in
    let floor = t.pending_floor and rollback = t.pending_rollback in
    t.pending <- [];
    t.pending_records <- 0;
    t.pending_bytes <- 0;
    t.pending_floor <- -1;
    t.pending_rollback <- max_int;
    t.flush_scheduled <- false;
    (* The records become durable when the fsync completes on the disk
       lane; a crash in between loses them, exactly like a real page
       cache. *)
    Cpu.submit t.io ~cost:(io_cost t nbytes) (fun () ->
        if not t.halted then begin
          let before = Sim_disk.faults_injected t.disk in
          Sim_disk.append t.disk ~round_of:record_round records;
          trace_new_faults t before;
          (* A durable rollback erases the slots holding unwound state. *)
          if rollback < max_int then
            Sim_disk.invalidate_above t.disk ~frontier:rollback;
          t.flushes <- t.flushes + 1;
          t.bytes_flushed <- t.bytes_flushed + nbytes;
          if hi > t.durable then t.durable <- hi;
          if floor > t.durable_floor then t.durable_floor <- floor;
          if Engine.tracing t.engine then
            Engine.trace t.engine ~replica:t.self ~instance:(-1)
              (Rcc_trace.Event.Journal_flush
                 { records = nrec; bytes = nbytes; durable = t.durable });
          compact t
        end)
  end

let append t ?round record =
  if not t.halted then begin
    t.appends <- t.appends + 1;
    t.pending <- record :: t.pending;
    t.pending_records <- t.pending_records + 1;
    t.pending_bytes <- t.pending_bytes + Sim_disk.length record;
    (match round with
    | Some r when r > t.pending_hi -> t.pending_hi <- r
    | _ -> ());
    if t.pending_bytes >= flush_bytes then flush t
    else if not t.flush_scheduled then begin
      t.flush_scheduled <- true;
      Engine.schedule_after t.engine flush_interval (fun () -> flush t)
    end
  end

let log_round t ~round ~primaries ordered =
  if primaries <> t.last_primaries then begin
    t.last_primaries <- primaries;
    append t (view_record primaries)
  end;
  append t ~round (round_record ~round ~primaries ordered)

let log_rollback t ~frontier =
  t.pending_rollback <- min t.pending_rollback frontier;
  append t (int_record 'B' frontier)

let log_stable t ~floor =
  t.pending_floor <- max t.pending_floor floor;
  append t (int_record 'A' floor)

let write_snapshot t (b : Rcc_storage.Snapshot.boundary) ~blocks ~replied =
  if not t.halted then begin
    (* A buffered rollback must be durable before a slot that follows it:
       flushing now puts it on the disk lane ahead of the slot, so no
       crash can leave a slot of post-rollback state over a journal that
       still ends in the rounds the rollback unwound. *)
    if t.pending_rollback < max_int then flush t;
    (* [snap_magic | u64 body length | checksum | body]: the body is
       encoded around the boundary's KV section, which the slot holds by
       reference; the checksum covers the whole body, section included. *)
    let seq = b.b_seq and kv = Option.value b.b_kv ~default:"" in
    let out, at =
      Rcc_storage.Snapshot.encode_around_kv ~header:snap_header_len b ~blocks
        ~replied
    in
    let stop = Bytes.length out in
    ignore
      (Wire.put_raw out snap_magic 0
      |> Wire.put_int out (stop - snap_header_len + String.length kv));
    let framing = Bytes.unsafe_to_string out in
    Xxh64.reset sum;
    Xxh64.update_sub sum framing snap_header_len (at - snap_header_len);
    Xxh64.update sum kv;
    Xxh64.update_sub sum framing at (stop - at);
    Bytes.set_int64_be out (snap_header_len - checksum_len)
      (Xxh64.finalize sum);
    let blob = Sim_disk.spliced ~frame:framing ~at:[| at |] [| kv |] in
    let bytes = Sim_disk.length blob in
    Cpu.submit t.io ~cost:(io_cost t bytes) (fun () ->
        if not t.halted then begin
          let before = Sim_disk.faults_injected t.disk in
          (* Read the slot back as recovery would; only a slot that
             passes can become the anchor. Bytes stored exactly as
             written decode to the boundary's state (the codec
             round-trips) under a checksum computed over them, so only
             their chain is left to verify; bytes the disk changed take
             the full load. *)
          let check =
            match t.primaries with
            | None -> None
            | Some primaries ->
                Some
                  (fun stored ->
                    if stored == blob then
                      Array.length blocks = seq
                      && Result.is_ok
                           (Rcc_storage.Snapshot.chain_head ~primaries blocks)
                    else
                      Option.is_some
                        (slot_snapshot ~primaries (Sim_disk.to_string stored)))
          in
          Sim_disk.write_snapshot t.disk ?check ~seq blob;
          trace_new_faults t before;
          t.snapshots_written <- t.snapshots_written + 1;
          if Engine.tracing t.engine then
            Engine.trace t.engine ~replica:t.self ~instance:(-1)
              (Rcc_trace.Event.Journal_snapshot { seq; bytes });
          compact t
        end)
  end

let halt t =
  t.halted <- true;
  t.pending <- [];
  t.pending_records <- 0;
  t.pending_bytes <- 0

let disk t = t.disk
let appends t = t.appends
let flushes t = t.flushes
let bytes_flushed t = t.bytes_flushed
let snapshots_written t = t.snapshots_written
let durable_round t = t.durable

(* --- decoding ----------------------------------------------------------- *)

type record =
  | Round of {
      round : int;
      primaries : int list;
      ordered : Acceptance.t array;  (* replay order *)
    }
  | Attest of int
  | Rollback of int
  | View of int list

let parse_body kind s ~off ~len =
  let r = Wire.reader s ~pos:off ~limit:(off + len) in
  let record =
    match kind with
    | 'R' ->
        let round = Wire.int r in
        let primaries = Wire.int_list r ~max:max_list in
        let ordered =
          Array.init (Wire.count r ~max:max_slots "slot count") (fun _ ->
              let instance = Wire.int r in
              let speculative = Wire.bool r in
              let cert = Wire.int_list r ~max:max_list in
              let batch = Batch.read r in
              { Acceptance.instance; round; batch; cert; speculative; history = "" })
        in
        Round { round; primaries; ordered }
    | 'A' -> Attest (Wire.int r)
    | 'B' -> Rollback (Wire.int r)
    | 'V' -> View (Wire.int_list r ~max:max_list)
    | _ -> raise (Wire.Malformed "unknown record type")
  in
  Wire.finish r;
  record

(* The record framed at [p] and the offset past it, if its header, its
   checksum, every payload's digest binding and its body all check out. *)
let record_at s p =
  let r = Wire.reader s ~pos:p ~limit:(String.length s) in
  match
    Wire.magic r record_magic;
    let kind = Wire.byte r in
    let len = Wire.count r ~max:max_body "body length" in
    let stored = r.pos and off = r.pos + checksum_len in
    Wire.skip r (checksum_len + len);
    let spans = payload_spans kind s ~off ~len in
    if
      Int64.equal (String.get_int64_be s stored) (checksum s ~off ~len spans)
      && List.for_all (payload_bound s) spans
    then Some (parse_body kind s ~off ~len, off + len)
    else None
  with
  | result -> result
  | exception Wire.Malformed _ -> None

(* Scan the journal area, returning the longest valid record prefix and
   the bytes dropped past the first torn / corrupt / malformed record.
   A checksum or digest mismatch anywhere stops the scan — a lying disk
   gets its suffix truncated, never trusted. *)
let scan journal =
  let total = String.length journal in
  let records = ref [] in
  let pos = ref 0 in
  let ok = ref true in
  while !ok && !pos + header_len <= total do
    match record_at journal !pos with
    | Some (record, next) ->
        records := record :: !records;
        pos := next
    | None -> ok := false
  done;
  (* Trailing bytes shorter than a header are a torn tail, too. *)
  (List.rev !records, total - !pos)

let scan_rounds journal =
  List.filter_map
    (function Round { round; ordered; _ } -> Some (round, ordered) | _ -> None)
    (fst (scan journal))

(* --- recovery ----------------------------------------------------------- *)

type recovery = {
  r_frontier : int;
  r_snapshot_seq : int;
  r_replayed_rounds : int;
  r_replayed_txns : int;
  r_dropped_bytes : int;
}

(* Pick the newest snapshot slot whose framing checksum, decode and chain
   verification all pass; a corrupted slot falls through to the older
   one. *)
let load_snapshot disk ~primaries =
  List.fold_left
    (fun acc (_, blob) ->
      match acc with Some _ -> acc | None -> slot_snapshot ~primaries blob)
    None
    (Sim_disk.snapshots disk)

let recover ~engine ~self ~disk ~exec ~primaries () =
  (* 1. Newest verifiable snapshot, installed wholesale. *)
  let base =
    match load_snapshot disk ~primaries with
    | None -> 0
    | Some snap ->
        Exec.install_snapshot exec snap;
        snap.Rcc_storage.Snapshot.seq
  in
  if Engine.tracing engine then
    Engine.trace engine ~replica:self ~instance:(-1)
      (Rcc_trace.Event.Journal_replay_begin { seq = base });
  (* 2. Longest valid journal prefix; a fault truncates from there on. *)
  let records, dropped = scan (Sim_disk.journal disk) in
  (* 3. Final stable floor across the prefix: speculative rounds at or
     above it are unproven (their rollback may be in the lost suffix), so
     replay stops there and leaves the rest to state transfer. *)
  let attest_floor =
    List.fold_left
      (fun floor r -> match r with Attest f when f > floor -> f | _ -> floor)
      base records
  in
  (* 4. Replay through the execute stage, in journal order. A round gap
     (lost record) or an unproven speculative round stops the replay —
     the suffix past it is state transfer's job. *)
  let replayed_rounds = ref 0 in
  let replayed_txns = ref 0 in
  let stopped = ref false in
  List.iter
    (fun record ->
      if not !stopped then
        match record with
        | Round { round; primaries; ordered } ->
            let next = Exec.next_round exec in
            if round < next then ()  (* covered by the snapshot *)
            else if round > next then stopped := true
            else if
              round >= attest_floor
              && Array.exists (fun (a : Acceptance.t) -> a.speculative) ordered
            then stopped := true
            else begin
              replayed_txns :=
                !replayed_txns + Exec.replay_round exec ~round ~primaries ordered;
              incr replayed_rounds;
              if Engine.tracing engine then
                Engine.trace engine ~replica:self ~instance:(-1)
                  (Rcc_trace.Event.Journal_replay_round
                     {
                       round;
                       txns =
                         Array.fold_left
                           (fun acc (a : Acceptance.t) ->
                             acc + Array.length a.batch.Batch.txns)
                           0 ordered;
                     })
            end
        | Rollback frontier ->
            (* Clamp to the snapshot base: rounds the snapshot bakes in
               have no undo records and can never be unwound here. *)
            Exec.replay_rollback exec ~frontier:(max frontier base)
        | Attest floor -> if floor > base then Exec.replay_stable exec ~floor
        | View _ -> ())
    records;
  let frontier = Exec.next_round exec in
  if dropped > 0 && Engine.tracing engine then
    Engine.trace engine ~replica:self ~instance:(-1)
      (Rcc_trace.Event.Journal_truncated { durable = frontier; dropped });
  if Engine.tracing engine then
    Engine.trace engine ~replica:self ~instance:(-1)
      (Rcc_trace.Event.Journal_replay_complete
         { frontier; rounds = !replayed_rounds; txns = !replayed_txns });
  {
    r_frontier = frontier;
    r_snapshot_seq = base;
    r_replayed_rounds = !replayed_rounds;
    r_replayed_txns = !replayed_txns;
    r_dropped_bytes = dropped;
  }
