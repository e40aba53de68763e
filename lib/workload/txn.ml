type op = Read | Write of int

type t = { key : int; op : op }

(* A 100-txn PRE-PREPARE is 5400 B (§7.2) and protocol headers are 250 B,
   plus ~150 B of batch framing/signature: 50 B per transaction. *)
let wire_size = 50

let encoded_size = 24

let encode_into buf off t =
  let tag, v = match t.op with Read -> (0L, 0L) | Write v -> (1L, Int64.of_int v) in
  Rcc_common.Bytes_util.put_u64be buf off (Int64.of_int t.key);
  Rcc_common.Bytes_util.put_u64be buf (off + 8) tag;
  Rcc_common.Bytes_util.put_u64be buf (off + 16) v

let encode t =
  let buf = Bytes.create encoded_size in
  encode_into buf 0 t;
  Bytes.unsafe_to_string buf

let decode buf off =
  if String.length buf < off + encoded_size then Error "txn: truncated"
  else
    let u64 i = Int64.to_int (Rcc_common.Bytes_util.get_u64be buf (off + i)) in
    let key = u64 0 in
    match u64 8 with
    | 0 -> Ok { key; op = Read }
    | 1 -> Ok { key; op = Write (u64 16) }
    | tag -> Error (Printf.sprintf "txn: bad op tag %d" tag)

let apply store t =
  match t.op with
  | Read -> Rcc_storage.Kv_store.value store t.key
  | Write v ->
      Rcc_storage.Kv_store.write store ~key:t.key ~value:v;
      v

let equal a b =
  a.key = b.key
  && match (a.op, b.op) with
     | Read, Read -> true
     | Write x, Write y -> x = y
     | Read, Write _ | Write _, Read -> false

let pp fmt t =
  match t.op with
  | Read -> Format.fprintf fmt "R(%d)" t.key
  | Write v -> Format.fprintf fmt "W(%d:=%d)" t.key v
