module Bytes_util = Rcc_common.Bytes_util

let magic = "RCCS1\n"

type t = {
  seq : Rcc_common.Ids.round;
  blocks : Block.t array;
  kv : (int * int * int) array option;
  replied : (Rcc_common.Ids.client_id * string * Rcc_common.Ids.round * string) list;
}

(* --- digests ------------------------------------------------------------ *)

(* One canonical KV triple: three big-endian u64s. The bulk of a large
   snapshot and of its digest, so the stores are inline. *)
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

let put_int = Ledger_io.put_int
let put_string = Ledger_io.put_string

(* magic, seq, block count, blocks; kv flag [and count, triples]; reply
   count and per entry client, digest, round, result. *)
let encoded_size t =
  let blocks =
    Array.fold_left (fun acc b -> acc + Ledger_io.block_size b) 0 t.blocks
  in
  let kv =
    match t.kv with Some e -> 1 + 8 + (24 * Array.length e) | None -> 1
  in
  let replied =
    List.fold_left
      (fun acc (_, digest, _, result) ->
        acc + 8 + (8 + String.length digest) + 8 + (8 + String.length result))
      8 t.replied
  in
  String.length magic + 8 + 8 + blocks + kv + replied

let encode_into t buf ~off =
  Bytes.blit_string magic 0 buf off (String.length magic);
  let off = put_int buf (off + String.length magic) t.seq in
  let off = put_int buf off (Array.length t.blocks) in
  let off =
    Array.fold_left (fun off b -> Ledger_io.write_block b buf ~off) off t.blocks
  in
  let off =
    match t.kv with
    | Some entries ->
        Bytes.set buf off '\x01';
        Array.fold_left (put_triple buf)
          (put_int buf (off + 1) (Array.length entries))
          entries
    | None ->
        Bytes.set buf off '\x00';
        off + 1
  in
  List.fold_left
    (fun off (client, digest, round, result) ->
      let off = put_int buf off client in
      let off = put_string buf off digest in
      let off = put_int buf off round in
      put_string buf off result)
    (put_int buf off (List.length t.replied))
    t.replied

let encode t =
  let buf = Bytes.create (encoded_size t) in
  let stop = encode_into t buf ~off:0 in
  assert (stop = Bytes.length buf);
  Bytes.unsafe_to_string buf

(* --- decode ------------------------------------------------------------- *)

exception Malformed of string

type reader = { buf : string; mutable pos : int }

let need r n =
  if r.pos + n > String.length r.buf then raise (Malformed "snapshot truncated")

let r_int r =
  need r 8;
  let v = Int64.to_int (Bytes_util.get_u64be r.buf r.pos) in
  r.pos <- r.pos + 8;
  v

let r_string r =
  let len = r_int r in
  if len < 0 || len > 10_000_000 then raise (Malformed "bad string length");
  need r len;
  let s = String.sub r.buf r.pos len in
  r.pos <- r.pos + len;
  s

let r_byte r =
  need r 1;
  let c = r.buf.[r.pos] in
  r.pos <- r.pos + 1;
  c

let decode s =
  match
    (let mlen = String.length magic in
     if String.length s < mlen || not (String.equal (String.sub s 0 mlen) magic)
     then raise (Malformed "bad magic");
     let r = { buf = s; pos = mlen } in
     let seq = r_int r in
     if seq < 0 then raise (Malformed "negative seq");
     let nblocks = r_int r in
     if nblocks < 0 || nblocks > 10_000_000 then
       raise (Malformed "bad block count");
     let blocks =
       Array.init nblocks (fun _ ->
           match Ledger_io.read_block s ~pos:r.pos with
           | block, pos ->
               r.pos <- pos;
               block
           | exception Ledger_io.Malformed e -> raise (Malformed e))
     in
     let kv =
       match r_byte r with
       | '\x00' -> None
       | '\x01' ->
           let count = r_int r in
           if count < 0 || count > 100_000_000 then
             raise (Malformed "bad kv count");
           Some
             (Array.init count (fun _ ->
                  let key = r_int r in
                  let value = r_int r in
                  let version = r_int r in
                  (key, value, version)))
       | _ -> raise (Malformed "bad kv flag")
     in
     let nreplied = r_int r in
     if nreplied < 0 || nreplied > 10_000_000 then
       raise (Malformed "bad replied count");
     let replied =
       List.init nreplied (fun _ ->
           let client = r_int r in
           let digest = r_string r in
           let round = r_int r in
           let result = r_string r in
           (client, digest, round, result))
     in
     if r.pos <> String.length s then raise (Malformed "trailing bytes");
     { seq; blocks; kv; replied })
  with
  | snapshot -> Ok snapshot
  | exception Malformed e -> Error e

(* A snapshot is self-consistent when its chain really covers rounds
   [0, seq) and hashes to a single head. The caller then compares that
   head (and [kv_digest]) against the f+1-attested values. *)
let verify ~primaries t =
  if Array.length t.blocks <> t.seq then
    Error
      (Printf.sprintf "snapshot: %d blocks for seq %d" (Array.length t.blocks)
         t.seq)
  else chain_head ~primaries t.blocks
