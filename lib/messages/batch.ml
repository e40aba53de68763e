type key_sets = { rset : int array; wset : int array }

type t = {
  id : int;
  client : Rcc_common.Ids.client_id;
  txns : Rcc_workload.Txn.t array;
  digest : string;
  signature : Rcc_crypto.Signature.signature;
  wire : int;
  mutable keys : key_sets option;
  mutable payload : string;
  seal_txns : Rcc_workload.Txn.t array;
  seal_digest : string;
}

module Txn = Rcc_workload.Txn
module Wire = Rcc_common.Wire

let put_txns b txns off =
  let n = Array.length txns in
  for i = 0 to n - 1 do
    Txn.encode_into b (off + (i * Txn.encoded_size)) txns.(i)
  done;
  off + (n * Txn.encoded_size)

(* All transactions in one flat buffer: the bytes [digest] hashes and the
   journal stores. *)
let encode_txns txns =
  let buf = Bytes.create (Array.length txns * Txn.encoded_size) in
  ignore (put_txns buf txns 0);
  Bytes.unsafe_to_string buf

let digest_of_txns txns = Rcc_crypto.Sha256.digest (encode_txns txns)

let wire_size ~ntxns = ntxns * Rcc_workload.Txn.wire_size

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

let compute_key_sets txns =
  let n = Array.length txns in
  if n = 0 then empty_keys
  else begin
    let r = Array.make n 0 and w = Array.make n 0 in
    let nr = ref 0 and nw = ref 0 in
    Array.iter
      (fun (txn : Rcc_workload.Txn.t) ->
        match txn.Rcc_workload.Txn.op with
        | Rcc_workload.Txn.Read ->
            r.(!nr) <- txn.Rcc_workload.Txn.key;
            incr nr
        | Rcc_workload.Txn.Write _ ->
            w.(!nw) <- txn.Rcc_workload.Txn.key;
            incr nw)
      txns;
    { rset = sorted_dedup r !nr; wset = sorted_dedup w !nw }
  end

(* Computed on first use and cached in the record (like [wire], but lazy:
   serial execution never needs key sets, so fault-free serial runs pay
   nothing). The cache is per-record, so unlike the digest memo it cannot
   alias across batches. *)
let key_sets t =
  match t.keys with
  | Some k -> k
  | None ->
      let k = compute_key_sets t.txns in
      t.keys <- Some k;
      k

(* Encoded on the first journal write and shared by every replica that
   journals the record; runs without a journal never encode. "" stands
   for "not yet encoded", which is also the encoding of no txns. *)
let payload t =
  if t.payload = "" && Array.length t.txns > 0 then
    t.payload <- encode_txns t.txns;
  t.payload

let create ~id ~client ~txns ~secret =
  let digest = digest_of_txns txns in
  {
    id;
    client;
    txns;
    digest;
    signature = Rcc_crypto.Signature.sign secret digest;
    wire = wire_size ~ntxns:(Array.length txns);
    keys = None;
    payload = "";
    seal_txns = txns;
    seal_digest = digest;
  }

(* The seal's digest is a private copy, never physically the record's, so
   [verify] recomputes; it still equals [digest] structurally, so a
   decoded batch compares equal to the one that was encoded. *)
let of_parts ~id ~client ~txns ~digest ~signature =
  {
    id;
    client;
    txns;
    digest;
    signature;
    wire = wire_size ~ntxns:(Array.length txns);
    keys = None;
    payload = "";
    seal_txns = txns;
    seal_digest = Bytes.to_string (Bytes.of_string digest);
  }

let null_client = -1

let null ~round =
  {
    (of_parts ~id:(-round - 1) ~client:null_client ~txns:[||]
       ~digest:(Rcc_crypto.Sha256.digest ("rcc-null" ^ string_of_int round))
       ~signature:(String.make Rcc_crypto.Signature.signature_size '\x00'))
    with
    keys = Some empty_keys;
  }

let is_null t = t.client = null_client

(* The simulator passes messages by reference, so the batch a replica
   verifies is usually the record [create] sealed: its [txns] and
   [digest] are physically the pair that was hashed, and hashing again
   would give the same bytes. Any other record, including a
   [{b with txns}] or [{b with digest}] copy, is recomputed. *)
let verify t ~public =
  ((t.txns == t.seal_txns && t.digest == t.seal_digest)
  || String.equal t.digest (digest_of_txns t.txns))
  && Rcc_crypto.Signature.verify public t.digest t.signature

let size t = t.wire

(* --- binary record ------------------------------------------------------ *)

(* id, client, txn count, the encoded txns, digest, signature. *)

let max_txns = 1_000_000

let payload_offset = 24

let framing_size t =
  payload_offset + Wire.string_size t.digest + Wire.string_size t.signature

let encoded_size t = framing_size t + (Array.length t.txns * Txn.encoded_size)

let write_head b t off =
  Wire.put_int b t.id off
  |> Wire.put_int b t.client
  |> Wire.put_int b (Array.length t.txns)

let write_tail b t off =
  Wire.put_string b t.digest off |> Wire.put_string b t.signature

(* The txns are copied from the cached payload when there is one and
   encoded in place otherwise, so writing never fills the cache. *)
let write b t off =
  let off = write_head b t off in
  (if t.payload = "" then put_txns b t.txns off else Wire.put_raw b t.payload off)
  |> write_tail b t

let write_framing b t off = write_head b t off |> write_tail b t

(* Digest and signature are bounded by the reader's limit alone. *)
let read (r : Wire.reader) =
  let id = Wire.int r in
  let client = Wire.int r in
  let ntxns = Wire.count r ~max:max_txns "txn count" in
  Wire.need r (ntxns * Txn.encoded_size);
  let txns = Array.init ntxns (fun _ -> Txn.read r) in
  let digest = Wire.string r ~max:max_int in
  let signature = Wire.string r ~max:max_int in
  of_parts ~id ~client ~txns ~digest ~signature

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
