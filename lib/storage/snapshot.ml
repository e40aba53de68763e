module Wire = Rcc_common.Wire

let magic = "RCCS1\n"

type replied =
  (Rcc_common.Ids.client_id * string * Rcc_common.Ids.round * string) list

type t = {
  seq : Rcc_common.Ids.round;
  blocks : Block.t array;
  kv : (int * int * int) array option;
  replied : replied;
}

(* --- digests ------------------------------------------------------------ *)

(* One canonical KV triple: three big-endian u64s, as three
   [Wire.put_int]s would write them. The bulk of a large snapshot, so the
   stores are inline here rather than calls. *)
let[@inline] put_triple buf off key value version =
  Bytes.set_int64_be buf off (Int64.of_int key);
  Bytes.set_int64_be buf (off + 8) (Int64.of_int value);
  Bytes.set_int64_be buf (off + 16) (Int64.of_int version);
  off + 24

let triple_size = 24

let kv_section entries =
  let buf = Bytes.create (triple_size * Array.length entries) in
  ignore
    (Array.fold_left
       (fun off (key, value, version) -> put_triple buf off key value version)
       0 entries);
  Bytes.unsafe_to_string buf

let capture_kv store =
  let buf = Bytes.create (triple_size * Kv_store.size store) in
  let off = ref 0 in
  Kv_store.iter store (fun key value version ->
      off := put_triple buf !off key value version);
  Bytes.unsafe_to_string buf

let kv_section_digest = function
  | None -> ""
  | Some section ->
      let ctx = Rcc_crypto.Sha256.init () in
      Rcc_crypto.Sha256.update ctx "rcc-snapshot-kv";
      Rcc_crypto.Sha256.update ctx section;
      Rcc_crypto.Sha256.finalize ctx

let kv_digest kv = kv_section_digest (Option.map kv_section kv)

type boundary = {
  b_seq : Rcc_common.Ids.round;
  b_head : string;
  b_kv : string option;
  b_kv_digest : string Lazy.t;
  b_replied : replied;
}

let boundary ~seq ~head ~kv ~replied =
  (match kv with
  | Some s when String.length s mod triple_size <> 0 ->
      invalid_arg "Snapshot.boundary: KV section not whole triples"
  | _ -> ());
  {
    b_seq = seq;
    b_head = head;
    b_kv = kv;
    b_kv_digest = lazy (kv_section_digest kv);
    b_replied = replied;
  }

(* Walk the chain exactly as [Ledger.validate] does, but standalone — a
   requester must reject a forged prefix BEFORE installing it. Returns
   the head hash the chain pins (the genesis hash for an empty chain). *)
let chain_head ~primaries blocks =
  let genesis = Block.genesis_hash ~primaries in
  let n = Array.length blocks in
  let rec go i prev =
    if i = n then Ok prev
    else
      let b = blocks.(i) in
      if b.Block.round <> i then
        Error (Printf.sprintf "snapshot: bad round at %d" i)
      else if not (String.equal b.Block.prev_hash prev) then
        Error (Printf.sprintf "snapshot: hash chain broken at round %d" i)
      else go (i + 1) (Block.hash b)
  in
  go 0 genesis

(* --- encode ------------------------------------------------------------- *)

(* At most 10M blocks, replies and bytes per reply string; 100M KV
   triples. *)
let max_entries = 10_000_000
let max_kv = 100_000_000

(* magic, seq, block count, blocks; kv flag [and count, triples]; reply
   count and per entry client, digest, round, result. The KV triples are
   the one part a boundary holds pre-encoded. *)
let head_size blocks =
  Array.fold_left
    (fun acc b -> acc + Block.record_size b)
    (String.length magic + 8 + 8) blocks

let replied_size replied =
  List.fold_left
    (fun acc (_, digest, _, result) ->
      acc + 16 + Wire.string_size digest + Wire.string_size result)
    8 replied

let kv_header_size = function Some _ -> 1 + 8 | None -> 1

let write_head buf off ~seq ~blocks =
  let off =
    Wire.put_raw buf magic off
    |> Wire.put_int buf seq
    |> Wire.put_int buf (Array.length blocks)
  in
  Array.fold_left (fun off b -> Block.write buf b off) off blocks

(* The KV flag, then the triple count when there is a section. *)
let write_kv_header buf off ~triples =
  if triples < 0 then Wire.put_bool buf false off
  else Wire.put_bool buf true off |> Wire.put_int buf triples

let write_replied buf off replied =
  List.fold_left
    (fun off (client, digest, round, result) ->
      Wire.put_int buf client off
      |> Wire.put_string buf digest
      |> Wire.put_int buf round
      |> Wire.put_string buf result)
    (Wire.put_int buf (List.length replied) off)
    replied

(* A boundary's state with [header] bytes reserved in front; the KV
   section is copied in when [with_kv], otherwise left out at the
   returned offset. *)
let encode_boundary_into ~header ~with_kv b ~blocks =
  let section = Option.value b.b_kv ~default:"" in
  let size =
    header + head_size blocks + kv_header_size b.b_kv
    + (if with_kv then String.length section else 0)
    + replied_size b.b_replied
  in
  let buf = Bytes.create size in
  let triples =
    match b.b_kv with Some s -> String.length s / triple_size | None -> -1
  in
  let at =
    write_head buf header ~seq:b.b_seq ~blocks |> write_kv_header buf ~triples
  in
  let off = if with_kv then Wire.put_raw buf section at else at in
  let stop = write_replied buf off b.b_replied in
  assert (stop = size);
  (buf, at)

let encode_boundary b ~blocks =
  Bytes.unsafe_to_string
    (fst (encode_boundary_into ~header:0 ~with_kv:true b ~blocks))

(* The head is not part of the encoding. *)
let encode t =
  encode_boundary
    (boundary ~seq:t.seq ~head:"" ~kv:(Option.map kv_section t.kv)
       ~replied:t.replied)
    ~blocks:t.blocks

let encode_around_kv ~header b ~blocks =
  encode_boundary_into ~header ~with_kv:false b ~blocks

(* --- decode ------------------------------------------------------------- *)

let read_triple r =
  let key = Wire.int r in
  let value = Wire.int r in
  let version = Wire.int r in
  (key, value, version)

let read_reply r =
  let client = Wire.int r in
  let digest = Wire.string r ~max:max_entries in
  let round = Wire.int r in
  let result = Wire.string r ~max:max_entries in
  (client, digest, round, result)

let read r =
  Wire.magic r magic;
  let seq = Wire.int r in
  if seq < 0 then raise (Wire.Malformed "negative seq");
  let blocks =
    Array.init (Wire.count r ~max:max_entries "block count") (fun _ ->
        Block.read r)
  in
  let kv =
    if Wire.bool r then begin
      let count = Wire.count r ~max:max_kv "kv count" in
      Wire.need r (24 * count);
      Some (Array.init count (fun _ -> read_triple r))
    end
    else None
  in
  let replied =
    List.init (Wire.count r ~max:max_entries "replied count") (fun _ ->
        read_reply r)
  in
  { seq; blocks; kv; replied }

let decode = Wire.decode read

(* A snapshot is self-consistent when its chain really covers rounds
   [0, seq) and hashes to a single head. The caller then compares that
   head (and [kv_digest]) against the f+1-attested values. *)
let verify ~primaries t =
  if Array.length t.blocks <> t.seq then
    Error
      (Printf.sprintf "snapshot: %d blocks for seq %d" (Array.length t.blocks)
         t.seq)
  else chain_head ~primaries t.blocks
