type key_sets = { rset : int array; wset : int array }

type t = {
  id : int;
  client : Rcc_common.Ids.client_id;
  payload : string;
  digest : string;
  signature : Rcc_crypto.Signature.signature;
  mutable keys : key_sets option;
  seal_payload : string;
  seal_digest : string;
}

module Txn = Rcc_workload.Txn
module Wire = Rcc_common.Wire

(* All transactions in one flat buffer: the bytes [digest] hashes, the
   journal stores and execution reads. *)
let encode_txns txns =
  let n = Array.length txns in
  let buf = Bytes.create (n * Txn.encoded_size) in
  for i = 0 to n - 1 do
    Txn.encode_into buf (i * Txn.encoded_size) txns.(i)
  done;
  Bytes.unsafe_to_string buf

let digest_of_txns txns = Rcc_crypto.Sha256.digest (encode_txns txns)

let txn_count t = String.length t.payload / Txn.encoded_size

let txns t =
  Array.init (txn_count t) (fun i -> Txn.decode_at t.payload (i * Txn.encoded_size))

let apply store t =
  for i = 0 to txn_count t - 1 do
    ignore (Txn.apply_at store t.payload (i * Txn.encoded_size))
  done

let wire_size ~ntxns = ntxns * Txn.wire_size

(* --- read/write key sets ------------------------------------------------ *)

let empty_keys = { rset = [||]; wset = [||] }

(* Sort [a.(0..n-1)] ascending and drop duplicates in place; returns the
   deduplicated prefix. *)
let sorted_dedup a n =
  if n = 0 then [||]
  else begin
    let a = Array.sub a 0 n in
    Array.sort Int.compare a;
    let w = ref 1 in
    for i = 1 to n - 1 do
      if a.(i) <> a.(!w - 1) then begin
        a.(!w) <- a.(i);
        incr w
      end
    done;
    if !w = n then a else Array.sub a 0 !w
  end

let compute_key_sets payload =
  let n = String.length payload / Txn.encoded_size in
  if n = 0 then empty_keys
  else begin
    let r = Array.make n 0 and w = Array.make n 0 in
    let nr = ref 0 and nw = ref 0 in
    for i = 0 to n - 1 do
      let off = i * Txn.encoded_size in
      if Txn.is_write_at payload off then begin
        w.(!nw) <- Txn.key_at payload off;
        incr nw
      end
      else begin
        r.(!nr) <- Txn.key_at payload off;
        incr nr
      end
    done;
    { rset = sorted_dedup r !nr; wset = sorted_dedup w !nw }
  end

(* Computed on first use and cached in the record (lazy: serial
   execution never needs key sets, so fault-free serial runs pay
   nothing). The cache is per-record, so unlike the digest memo it cannot
   alias across batches. *)
let key_sets t =
  match t.keys with
  | Some k -> k
  | None ->
      let k = compute_key_sets t.payload in
      t.keys <- Some k;
      k

(* The records die young: only their encoding is kept. *)
let create ~id ~client ~txns ~secret =
  let payload = encode_txns txns in
  let digest = Rcc_crypto.Sha256.digest payload in
  {
    id;
    client;
    payload;
    digest;
    signature = Rcc_crypto.Signature.sign secret digest;
    keys = None;
    seal_payload = payload;
    seal_digest = digest;
  }

(* The seal's digest is a private copy, never physically the record's, so
   [verify] recomputes; it still equals [digest] structurally, so a
   decoded batch compares equal to the one that was encoded. *)
let of_parts ~id ~client ~payload ~digest ~signature =
  {
    id;
    client;
    payload;
    digest;
    signature;
    keys = None;
    seal_payload = payload;
    seal_digest = Bytes.to_string (Bytes.of_string digest);
  }

let null_client = -1

let null ~round =
  {
    (of_parts ~id:(-round - 1) ~client:null_client ~payload:""
       ~digest:(Rcc_crypto.Sha256.digest ("rcc-null" ^ string_of_int round))
       ~signature:(String.make Rcc_crypto.Signature.signature_size '\x00'))
    with
    keys = Some empty_keys;
  }

let is_null t = t.client = null_client

(* The simulator passes messages by reference, so the batch a replica
   verifies is usually the record [create] sealed: its [payload] and
   [digest] are physically the pair that was hashed, and hashing again
   would give the same bytes. Any other record, including a
   [{b with payload}] or [{b with digest}] copy, is recomputed. *)
let verify t ~public =
  ((t.payload == t.seal_payload && t.digest == t.seal_digest)
  || String.equal t.digest (Rcc_crypto.Sha256.digest t.payload))
  && Rcc_crypto.Signature.verify public t.digest t.signature

let size t = wire_size ~ntxns:(txn_count t)

(* --- binary record ------------------------------------------------------ *)

(* id, client, txn count, the encoded txns, digest, signature. *)

let max_txns = 1_000_000

let payload_offset = 24

let framing_size t =
  payload_offset + Wire.string_size t.digest + Wire.string_size t.signature

let encoded_size t = framing_size t + String.length t.payload

let write_head b t off =
  Wire.put_int b t.id off
  |> Wire.put_int b t.client
  |> Wire.put_int b (txn_count t)

let write_tail b t off =
  Wire.put_string b t.digest off |> Wire.put_string b t.signature

let write b t off = write_head b t off |> Wire.put_raw b t.payload |> write_tail b t

let write_framing b t off = write_head b t off |> write_tail b t

(* Digest and signature are bounded by the reader's limit alone. The txns
   stay the bytes they arrived as, once each is checked to be what
   [Txn.encode_into] writes: a batch keeps no other form of them, so a
   non-canonical encoding would execute as a txn whose encoding is other
   bytes than the ones its digest covers. *)
let read (r : Wire.reader) =
  let id = Wire.int r in
  let client = Wire.int r in
  let ntxns = Wire.count r ~max:max_txns "txn count" in
  let len = ntxns * Txn.encoded_size in
  Wire.need r len;
  for i = 0 to ntxns - 1 do
    Txn.check_at r.buf (r.pos + (i * Txn.encoded_size))
  done;
  let payload = String.sub r.buf r.pos len in
  r.pos <- r.pos + len;
  let digest = Wire.string r ~max:max_int in
  let signature = Wire.string r ~max:max_int in
  of_parts ~id ~client ~payload ~digest ~signature

type span = { p_off : int; p_len : int; d_off : int; d_len : int }

let span (r : Wire.reader) =
  Wire.skip r 16;
  let p_len = Txn.encoded_size * Wire.count r ~max:max_txns "txn count" in
  let p_off = r.pos in
  Wire.skip r p_len;
  let d_len = Wire.count r ~max:max_int "string length" in
  let d_off = r.pos in
  Wire.skip r d_len;
  Wire.skip r (Wire.count r ~max:max_int "string length");
  { p_off; p_len; d_off; d_len }
