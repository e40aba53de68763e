module Engine = Rcc_sim.Engine
module Cpu = Rcc_sim.Cpu
module Costs = Rcc_sim.Costs
module Batch = Rcc_messages.Batch
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

   [magic | kind | u64 body length | checksum | body]. The checksum is the
   first [checksum_len] bytes of a SHA-256 over the body minus its payload
   spans ([payload_spans]): a round record's batches keep their encoded
   txns outside it, because each batch's stored digest is already a
   SHA-256 over exactly those bytes ([Batch.digest_of_txns]), and [scan]
   checks that binding instead. Every other byte of every record,
   digests and signatures included, is under the checksum. An honest
   disk always passes: a batch with txns was built by [Batch.create],
   which computed its digest from them, and a null batch has no txns. *)

let header_len = String.length record_magic + 1 + 8 + checksum_len
let snap_header_len = String.length snap_magic + 8 + checksum_len
let checksum_at = header_len - checksum_len

exception Bad of string

type reader = { buf : string; mutable pos : int; limit : int }

let need r n = if r.pos + n > r.limit then raise (Bad "truncated")

let r_int r =
  need r 8;
  let v = Int64.to_int (String.get_int64_be r.buf r.pos) in
  r.pos <- r.pos + 8;
  v

let skip r n =
  need r n;
  r.pos <- r.pos + n

let r_count r ~max what =
  let n = r_int r in
  if n < 0 || n > max then raise (Bad ("bad " ^ what));
  n

let max_list = 1_000_000
let max_slots = 10_000
let max_txns = 1_000_000

(* A batch's encoded txns and the stored digest that must hash them. *)
type payload_span = { p_off : int; p_len : int; d_off : int; d_len : int }

(* The payload spans of the body at [s.[off .. off + len - 1]], in body
   order: one per batch with txns in a round record, none in the other
   kinds. Walks the layout [round_record] writes without decoding a txn;
   raises [Bad] where it does not parse. The writer and [scan] both
   derive the checksum from this one walk. *)
let payload_spans kind s ~off ~len =
  if kind <> 'R' then []
  else begin
    let r = { buf = s; pos = off; limit = off + len } in
    let skip_int_list () = skip r (8 * r_count r ~max:max_list "list length") in
    skip r 8 (* round *);
    skip_int_list () (* primaries *);
    let spans = ref [] in
    for _ = 1 to r_count r ~max:max_slots "slot count" do
      skip r 9 (* instance, speculative flag *);
      skip_int_list () (* cert *);
      skip r 16 (* batch id, client *);
      let ntxns = r_count r ~max:max_txns "txn count" in
      let p_off = r.pos and p_len = ntxns * Rcc_workload.Txn.encoded_size in
      skip r p_len;
      let d_len = r_count r ~max:max_body "string length" in
      let d_off = r.pos in
      skip r d_len;
      skip r (r_count r ~max:max_body "string length");
      if ntxns > 0 then spans := { p_off; p_len; d_off; d_len } :: !spans
    done;
    List.rev !spans
  end

let checksum s ~off ~len spans =
  let ctx = Rcc_crypto.Sha256.init () in
  let rest =
    List.fold_left
      (fun pos sp ->
        Rcc_crypto.Sha256.update_sub ctx s pos (sp.p_off - pos);
        sp.p_off + sp.p_len)
      off spans
  in
  Rcc_crypto.Sha256.update_sub ctx s rest (off + len - rest);
  String.sub (Rcc_crypto.Sha256.finalize ctx) 0 checksum_len

let payload_bound s sp =
  let ctx = Rcc_crypto.Sha256.init () in
  Rcc_crypto.Sha256.update_sub ctx s sp.p_off sp.p_len;
  let d = Rcc_crypto.Sha256.finalize ctx in
  sp.d_len = String.length d && String.equal d (String.sub s sp.d_off sp.d_len)

(* --- record encoding ---------------------------------------------------- *)

(* Records are written into one buffer of their exact size. *)
type writer = { out : Bytes.t; mutable at : int }

let w_int w v =
  Bytes.set_int64_be w.out w.at (Int64.of_int v);
  w.at <- w.at + 8

let w_char w c =
  Bytes.set w.out w.at c;
  w.at <- w.at + 1

let w_raw w s =
  Bytes.blit_string s 0 w.out w.at (String.length s);
  w.at <- w.at + String.length s

let w_string w s =
  w_int w (String.length s);
  w_raw w s

let w_int_list w l =
  w_int w (List.length l);
  List.iter (w_int w) l

let int_list_size l = 8 * (1 + List.length l)

let w_batch w (b : Batch.t) =
  w_int w b.Batch.id;
  w_int w b.Batch.client;
  w_int w (Array.length b.Batch.txns);
  w_raw w (Batch.payload b);
  w_string w b.Batch.digest;
  w_string w b.Batch.signature

(* id, client, txn count; the payload; two length-prefixed strings. *)
let batch_size (b : Batch.t) =
  (3 * 8)
  + String.length (Batch.payload b)
  + 8 + String.length b.Batch.digest
  + 8 + String.length b.Batch.signature

(* [frame kind len fill]: a record whose [len]-byte body [fill] writes. *)
let frame kind len fill =
  let w = { out = Bytes.create (header_len + len); at = 0 } in
  w_raw w record_magic;
  w_char w kind;
  w_int w len;
  w.at <- header_len;
  fill w;
  assert (w.at = header_len + len);
  let s = Bytes.unsafe_to_string w.out in
  let spans = payload_spans kind s ~off:header_len ~len in
  Bytes.blit_string (checksum s ~off:header_len ~len spans) 0 w.out
    checksum_at checksum_len;
  s

let round_record ~round ~primaries (ordered : Acceptance.t array) =
  (* round, primaries, slot count; per slot instance, speculative flag,
     certificate and batch. *)
  let len =
    Array.fold_left
      (fun acc (a : Acceptance.t) ->
        acc + 8 + 1 + int_list_size a.cert + batch_size a.batch)
      (8 + int_list_size primaries + 8)
      ordered
  in
  frame 'R' len (fun w ->
      w_int w round;
      w_int_list w primaries;
      w_int w (Array.length ordered);
      Array.iter
        (fun (a : Acceptance.t) ->
          w_int w a.instance;
          w_char w (if a.speculative then '\x01' else '\x00');
          w_int_list w a.cert;
          w_batch w a.batch)
        ordered)

let int_record kind v = frame kind 8 (fun w -> w_int w v)

let view_record primaries =
  frame 'V' (int_list_size primaries) (fun w -> w_int_list w primaries)

(* --- writer ------------------------------------------------------------- *)

type t = {
  engine : Engine.t;
  costs : Costs.t;
  disk : Sim_disk.t;
  self : Rcc_common.Ids.replica_id;
  io : Cpu.server;
  mutable pending : string list;  (* newest first *)
  mutable pending_records : int;
  mutable pending_bytes : int;
  mutable pending_hi : int;  (* highest round in the pending buffer *)
  mutable flush_scheduled : bool;
  mutable halted : bool;
  mutable last_primaries : Rcc_common.Ids.replica_id list;
  mutable appends : int;
  mutable flushes : int;
  mutable bytes_flushed : int;
  mutable snapshots_written : int;
  mutable durable : int;
}

let attach ~engine ~costs ~disk ~self () =
  {
    engine;
    costs;
    disk;
    self;
    io = Cpu.server engine ~owner:self ~name:(Printf.sprintf "r%d-disk" self) ();
    pending = [];
    pending_records = 0;
    pending_bytes = 0;
    pending_hi = -1;
    flush_scheduled = false;
    halted = false;
    last_primaries = [];
    appends = 0;
    flushes = 0;
    bytes_flushed = 0;
    snapshots_written = 0;
    durable = -1;
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

let flush t =
  if (not t.halted) && t.pending_records > 0 then begin
    let records = List.rev t.pending in
    let nrec = t.pending_records in
    let nbytes = t.pending_bytes in
    let hi = t.pending_hi in
    t.pending <- [];
    t.pending_records <- 0;
    t.pending_bytes <- 0;
    t.flush_scheduled <- false;
    (* The records become durable when the fsync completes on the disk
       lane; a crash in between loses them, exactly like a real page
       cache. *)
    Cpu.submit t.io ~cost:(io_cost t nbytes) (fun () ->
        if not t.halted then begin
          let before = Sim_disk.faults_injected t.disk in
          Sim_disk.append t.disk records;
          trace_new_faults t before;
          t.flushes <- t.flushes + 1;
          t.bytes_flushed <- t.bytes_flushed + nbytes;
          if hi > t.durable then t.durable <- hi;
          if Engine.tracing t.engine then
            Engine.trace t.engine ~replica:t.self ~instance:(-1)
              (Rcc_trace.Event.Journal_flush
                 { records = nrec; bytes = nbytes; durable = t.durable })
        end)
  end

let append t ?round record =
  if not t.halted then begin
    t.appends <- t.appends + 1;
    t.pending <- record :: t.pending;
    t.pending_records <- t.pending_records + 1;
    t.pending_bytes <- t.pending_bytes + String.length record;
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

let log_rollback t ~frontier = append t (int_record 'B' frontier)
let log_stable t ~floor = append t (int_record 'A' floor)

let write_snapshot t ~seq snapshot =
  if not t.halted then begin
    (* [snap_magic | u64 body length | checksum | body], the body encoded
       in place and checksummed where it lies. *)
    let len = Rcc_storage.Snapshot.encoded_size snapshot in
    let out = Bytes.create (snap_header_len + len) in
    Bytes.blit_string snap_magic 0 out 0 (String.length snap_magic);
    Bytes.set_int64_be out (String.length snap_magic) (Int64.of_int len);
    let stop =
      Rcc_storage.Snapshot.encode_into snapshot out ~off:snap_header_len
    in
    assert (stop = Bytes.length out);
    let blob = Bytes.unsafe_to_string out in
    Bytes.blit_string (checksum blob ~off:snap_header_len ~len []) 0 out
      (snap_header_len - checksum_len) checksum_len;
    Cpu.submit t.io ~cost:(io_cost t (String.length blob)) (fun () ->
        if not t.halted then begin
          let before = Sim_disk.faults_injected t.disk in
          Sim_disk.write_snapshot t.disk ~seq blob;
          trace_new_faults t before;
          t.snapshots_written <- t.snapshots_written + 1;
          if Engine.tracing t.engine then
            Engine.trace t.engine ~replica:t.self ~instance:(-1)
              (Rcc_trace.Event.Journal_snapshot
                 { seq; bytes = String.length blob })
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

let r_string r =
  let len = r_count r ~max:max_body "string length" in
  need r len;
  let s = String.sub r.buf r.pos len in
  r.pos <- r.pos + len;
  s

let r_int_list r =
  List.init (r_count r ~max:max_list "list length") (fun _ -> r_int r)

let r_bool r =
  need r 1;
  let c = r.buf.[r.pos] in
  r.pos <- r.pos + 1;
  match c with
  | '\x00' -> false
  | '\x01' -> true
  | _ -> raise (Bad "bad boolean")

let r_batch r =
  let id = r_int r in
  let client = r_int r in
  let ntxns = r_count r ~max:max_txns "txn count" in
  let txns =
    Array.init ntxns (fun _ ->
        need r Rcc_workload.Txn.encoded_size;
        match Rcc_workload.Txn.decode r.buf r.pos with
        | Ok txn ->
            r.pos <- r.pos + Rcc_workload.Txn.encoded_size;
            txn
        | Error e -> raise (Bad e))
  in
  let digest = r_string r in
  let signature = r_string r in
  Batch.of_parts ~id ~client ~txns ~digest ~signature

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
  let r = { buf = s; pos = off; limit = off + len } in
  let record =
    match kind with
    | 'R' ->
        let round = r_int r in
        let primaries = r_int_list r in
        let ordered =
          Array.init (r_count r ~max:max_slots "slot count") (fun _ ->
              let instance = r_int r in
              let speculative = r_bool r in
              let cert = r_int_list r in
              let batch = r_batch r in
              { Acceptance.instance; round; batch; cert; speculative; history = "" })
        in
        Round { round; primaries; ordered }
    | 'A' -> Attest (r_int r)
    | 'B' -> Rollback (r_int r)
    | 'V' -> View (r_int_list r)
    | _ -> raise (Bad "unknown record type")
  in
  if r.pos <> r.limit then raise (Bad "trailing bytes");
  record

(* The record framed at [p] and the offset past it, if its header, its
   checksum, every payload's digest binding and its body all check out. *)
let record_at s p =
  if not (String.equal (String.sub s p 4) record_magic) then None
  else
    let kind = s.[p + 4] in
    let len = Int64.to_int (String.get_int64_be s (p + 5)) in
    let off = p + header_len in
    if len < 0 || len > max_body || off + len > String.length s then None
    else
      match
        let spans = payload_spans kind s ~off ~len in
        if
          String.equal (String.sub s (p + checksum_at) checksum_len)
            (checksum s ~off ~len spans)
          && List.for_all (payload_bound s) spans
        then Some (parse_body kind s ~off ~len, off + len)
        else None
      with
      | result -> result
      | exception Bad _ -> None

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
  let unwrap blob =
    let header = snap_header_len in
    if String.length blob < header then None
    else if not (String.equal (String.sub blob 0 4) snap_magic) then None
    else
      let len = Int64.to_int (String.get_int64_be blob 4) in
      if len < 0 || String.length blob <> header + len then None
      else
        let sum = String.sub blob (header - checksum_len) checksum_len in
        if not (String.equal sum (checksum blob ~off:header ~len [])) then None
        else
          match Rcc_storage.Snapshot.decode (String.sub blob header len) with
          | Ok snap -> (
              match Rcc_storage.Snapshot.verify ~primaries snap with
              | Ok _ -> Some snap
              | Error _ -> None)
          | Error _ -> None
  in
  List.fold_left
    (fun acc (_, blob) -> match acc with Some _ -> acc | None -> unwrap blob)
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
