module Engine = Rcc_sim.Engine
module Cpu = Rcc_sim.Cpu
module Costs = Rcc_sim.Costs
module Bytes_util = Rcc_common.Bytes_util
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

(* --- record encoding ---------------------------------------------------- *)

let w_int buf v = Buffer.add_string buf (Bytes_util.u64_string (Int64.of_int v))

let w_string buf s =
  w_int buf (String.length s);
  Buffer.add_string buf s

let w_int_list buf l =
  w_int buf (List.length l);
  List.iter (w_int buf) l

let w_batch buf (b : Batch.t) =
  w_int buf b.Batch.id;
  w_int buf b.Batch.client;
  w_int buf (Array.length b.Batch.txns);
  Array.iter
    (fun txn -> Buffer.add_string buf (Rcc_workload.Txn.encode txn))
    b.Batch.txns;
  w_string buf b.Batch.digest;
  w_string buf b.Batch.signature

(* [frame kind body]: magic | kind | u64 length | sha256-prefix | body.
   The checksum covers the body only; the header fields are validated
   structurally (magic match, sane length). *)
let frame kind body =
  let buf = Buffer.create (String.length body + 21) in
  Buffer.add_string buf record_magic;
  Buffer.add_char buf kind;
  w_int buf (String.length body);
  Buffer.add_string buf
    (String.sub (Rcc_crypto.Sha256.digest body) 0 checksum_len);
  Buffer.add_string buf body;
  Buffer.contents buf

let round_record ~round ~primaries (ordered : Acceptance.t array) =
  let buf = Buffer.create 512 in
  w_int buf round;
  w_int_list buf primaries;
  w_int buf (Array.length ordered);
  Array.iter
    (fun (a : Acceptance.t) ->
      w_int buf a.instance;
      Buffer.add_char buf (if a.speculative then '\x01' else '\x00');
      w_int_list buf a.cert;
      w_batch buf a.batch)
    ordered;
  frame 'R' (Buffer.contents buf)

let int_record kind v =
  let buf = Buffer.create 8 in
  w_int buf v;
  frame kind (Buffer.contents buf)

let view_record primaries =
  let buf = Buffer.create 16 in
  w_int_list buf primaries;
  frame 'V' (Buffer.contents buf)

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
    let body = Rcc_storage.Snapshot.encode snapshot in
    let blob =
      let buf = Buffer.create (String.length body + 20) in
      Buffer.add_string buf snap_magic;
      w_int buf (String.length body);
      Buffer.add_string buf
        (String.sub (Rcc_crypto.Sha256.digest body) 0 checksum_len);
      Buffer.add_string buf body;
      Buffer.contents buf
    in
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

exception Bad of string

type reader = { buf : string; mutable pos : int }

let need r n = if r.pos + n > String.length r.buf then raise (Bad "truncated")

let r_int r =
  need r 8;
  let v = Int64.to_int (Bytes_util.get_u64be r.buf r.pos) in
  r.pos <- r.pos + 8;
  v

let r_string r =
  let len = r_int r in
  if len < 0 || len > max_body then raise (Bad "bad string length");
  need r len;
  let s = String.sub r.buf r.pos len in
  r.pos <- r.pos + len;
  s

let r_int_list r =
  let len = r_int r in
  if len < 0 || len > 1_000_000 then raise (Bad "bad list length");
  List.init len (fun _ -> r_int r)

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
  let ntxns = r_int r in
  if ntxns < 0 || ntxns > 1_000_000 then raise (Bad "bad txn count");
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
  {
    Batch.id;
    client;
    txns;
    digest;
    signature;
    wire = Batch.wire_size ~ntxns;
    keys = None;
  }

type record =
  | Round of {
      round : int;
      primaries : int list;
      ordered : Acceptance.t array;  (* replay order *)
    }
  | Attest of int
  | Rollback of int
  | View of int list

let parse_body kind body =
  let r = { buf = body; pos = 0 } in
  let record =
    match kind with
    | 'R' ->
        let round = r_int r in
        let primaries = r_int_list r in
        let nslots = r_int r in
        if nslots < 0 || nslots > 10_000 then raise (Bad "bad slot count");
        let ordered =
          Array.init nslots (fun _ ->
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
  if r.pos <> String.length body then raise (Bad "trailing bytes");
  record

(* Scan the journal area, returning the longest valid record prefix and
   the bytes dropped past the first torn / corrupt / malformed record.
   A checksum mismatch anywhere stops the scan — a lying disk gets its
   suffix truncated, never trusted. *)
let scan journal =
  let total = String.length journal in
  let header_len = String.length record_magic + 1 + 8 + checksum_len in
  let records = ref [] in
  let pos = ref 0 in
  let ok = ref true in
  while !ok && !pos + header_len <= total do
    let p = !pos in
    if not (String.equal (String.sub journal p 4) record_magic) then ok := false
    else begin
      let kind = journal.[p + 4] in
      let len = Int64.to_int (Bytes_util.get_u64be journal (p + 5)) in
      if len < 0 || len > max_body || p + header_len + len > total then
        ok := false
      else begin
        let sum = String.sub journal (p + 13) checksum_len in
        let body = String.sub journal (p + header_len) len in
        if
          not
            (String.equal sum
               (String.sub (Rcc_crypto.Sha256.digest body) 0 checksum_len))
        then ok := false
        else
          match parse_body kind body with
          | record ->
              records := record :: !records;
              pos := p + header_len + len
          | exception Bad _ -> ok := false
      end
    end
  done;
  (* Trailing bytes shorter than a header are a torn tail, too. *)
  (List.rev !records, total - !pos)

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
    let header = String.length snap_magic + 8 + checksum_len in
    if String.length blob < header then None
    else if not (String.equal (String.sub blob 0 4) snap_magic) then None
    else
      let len = Int64.to_int (Bytes_util.get_u64be blob 4) in
      if len < 0 || String.length blob <> header + len then None
      else
        let sum = String.sub blob 12 checksum_len in
        let body = String.sub blob header len in
        if
          not
            (String.equal sum
               (String.sub (Rcc_crypto.Sha256.digest body) 0 checksum_len))
        then None
        else
          match Rcc_storage.Snapshot.decode body with
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
