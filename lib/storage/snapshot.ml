module Bytes_util = Rcc_common.Bytes_util

let magic = "RCCS1\n"

type t = {
  seq : Rcc_common.Ids.round;
  blocks : Block.t array;
  kv : (int * int * int) array option;
  replied : (Rcc_common.Ids.client_id * string * Rcc_common.Ids.round * string) list;
}

(* --- digests ------------------------------------------------------------ *)

let kv_digest = function
  | None -> ""
  | Some entries ->
      let ctx = Rcc_crypto.Sha256.init () in
      Rcc_crypto.Sha256.update ctx "rcc-snapshot-kv";
      Array.iter
        (fun (key, value, version) ->
          Rcc_crypto.Sha256.update ctx (Bytes_util.u64_string (Int64.of_int key));
          Rcc_crypto.Sha256.update ctx (Bytes_util.u64_string (Int64.of_int value));
          Rcc_crypto.Sha256.update ctx
            (Bytes_util.u64_string (Int64.of_int version)))
        entries;
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

let w_int buf v = Buffer.add_string buf (Bytes_util.u64_string (Int64.of_int v))

let w_string buf s =
  w_int buf (String.length s);
  Buffer.add_string buf s

let encode t =
  let buf = Buffer.create (4096 + (Array.length t.blocks * 128)) in
  Buffer.add_string buf magic;
  w_int buf t.seq;
  w_int buf (Array.length t.blocks);
  Array.iter (fun b -> Ledger_io.write_block buf b) t.blocks;
  (match t.kv with
  | Some entries ->
      Buffer.add_char buf '\x01';
      w_int buf (Array.length entries);
      Array.iter
        (fun (key, value, version) ->
          w_int buf key;
          w_int buf value;
          w_int buf version)
        entries
  | None -> Buffer.add_char buf '\x00');
  w_int buf (List.length t.replied);
  List.iter
    (fun (client, digest, round, result) ->
      w_int buf client;
      w_string buf digest;
      w_int buf round;
      w_string buf result)
    t.replied;
  Buffer.contents buf

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
