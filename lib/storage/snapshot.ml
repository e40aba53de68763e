module Wire = Rcc_common.Wire

let magic = "RCCS1\n"

type t = {
  seq : Rcc_common.Ids.round;
  blocks : Block.t array;
  kv : (int * int * int) array option;
  replied : (Rcc_common.Ids.client_id * string * Rcc_common.Ids.round * string) list;
}

(* --- digests ------------------------------------------------------------ *)

(* One canonical KV triple: three big-endian u64s, as three
   [Wire.put_int]s would write them. The bulk of a large snapshot and of
   its digest, so the stores are inline here rather than calls. *)
let[@inline] put_triple buf off (key, value, version) =
  Bytes.set_int64_be buf off (Int64.of_int key);
  Bytes.set_int64_be buf (off + 8) (Int64.of_int value);
  Bytes.set_int64_be buf (off + 16) (Int64.of_int version);
  off + 24

(* The triples go through one reused buffer, a chunk of them per SHA-256
   update: the digest is over the same byte stream as hashing each
   field's u64 on its own. *)
let kv_chunk = 256

let kv_digest = function
  | None -> ""
  | Some entries ->
      let ctx = Rcc_crypto.Sha256.init () in
      Rcc_crypto.Sha256.update ctx "rcc-snapshot-kv";
      let buf = Bytes.create (24 * kv_chunk) in
      let flush len =
        Rcc_crypto.Sha256.update_sub ctx (Bytes.unsafe_to_string buf) 0 len
      in
      let off =
        Array.fold_left
          (fun off triple ->
            if off < Bytes.length buf then put_triple buf off triple
            else begin
              flush off;
              put_triple buf 0 triple
            end)
          0 entries
      in
      flush off;
      Rcc_crypto.Sha256.finalize ctx

type boundary = {
  b_seq : Rcc_common.Ids.round;
  b_head : string;
  b_kv : (int * int * int) array option;
  b_kv_digest : string Lazy.t;
}

let boundary ~seq ~head ~kv =
  { b_seq = seq; b_head = head; b_kv = kv; b_kv_digest = lazy (kv_digest kv) }

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
   count and per entry client, digest, round, result. *)
let encoded_size t =
  let blocks =
    Array.fold_left (fun acc b -> acc + Block.record_size b) 0 t.blocks
  in
  let kv =
    match t.kv with Some e -> 1 + 8 + (24 * Array.length e) | None -> 1
  in
  let replied =
    List.fold_left
      (fun acc (_, digest, _, result) ->
        acc + 16 + Wire.string_size digest + Wire.string_size result)
      8 t.replied
  in
  String.length magic + 8 + 8 + blocks + kv + replied

let encode_into t buf ~off =
  let off =
    Wire.put_raw buf magic off
    |> Wire.put_int buf t.seq
    |> Wire.put_int buf (Array.length t.blocks)
  in
  let off = Array.fold_left (fun off b -> Block.write buf b off) off t.blocks in
  let off =
    match t.kv with
    | Some entries ->
        let off =
          Wire.put_bool buf true off |> Wire.put_int buf (Array.length entries)
        in
        Array.fold_left (put_triple buf) off entries
    | None -> Wire.put_bool buf false off
  in
  List.fold_left
    (fun off (client, digest, round, result) ->
      Wire.put_int buf client off
      |> Wire.put_string buf digest
      |> Wire.put_int buf round
      |> Wire.put_string buf result)
    (Wire.put_int buf (List.length t.replied) off)
    t.replied

let encode t =
  let buf = Bytes.create (encoded_size t) in
  let stop = encode_into t buf ~off:0 in
  assert (stop = Bytes.length buf);
  Bytes.unsafe_to_string buf

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
