type op = Read | Write of int

type t = { key : int; op : op }

(* A 100-txn PRE-PREPARE is 5400 B (§7.2) and protocol headers are 250 B,
   plus ~150 B of batch framing/signature: 50 B per transaction. *)
let wire_size = 50

let encoded_size = 24

module Wire = Rcc_common.Wire

(* Key, op tag (0 read, 1 write), value (0 for a read): three big-endian
   64-bit fields. *)
let encode_into buf off t =
  let off = Wire.put_int buf t.key off in
  ignore
    (match t.op with
    | Read -> Wire.put_int buf 0 off |> Wire.put_int buf 0
    | Write v -> Wire.put_int buf 1 off |> Wire.put_int buf v)

let encode t =
  let buf = Bytes.create encoded_size in
  encode_into buf 0 t;
  Bytes.unsafe_to_string buf

(* --- the encoded form in place ------------------------------------------

   A batch keeps its txns only as their encodings, so execution and
   conflict analysis read the fields where they lie, without building a
   record. Every reader below assumes a canonical encoding: one that
   [encode] writes, which is what [check_at] accepts. *)

let field s off i = Int64.to_int (String.get_int64_be s (off + (8 * i)))

let key_at s off = field s off 0
let is_write_at s off = field s off 1 <> 0

let apply_at store s off =
  let key = key_at s off in
  if is_write_at s off then begin
    let value = field s off 2 in
    Rcc_storage.Kv_store.write store ~key ~value;
    value
  end
  else Rcc_storage.Kv_store.value store key

let decode_at s off =
  { key = key_at s off; op = (if is_write_at s off then Write (field s off 2) else Read) }

(* A field holds an OCaml int iff sign-extending its low 63 bits gives it
   back; otherwise decoding would truncate it and [encode] would not
   reproduce the bytes. *)
let int_field s off i =
  let x = String.get_int64_be s (off + (8 * i)) in
  Int64.equal (Int64.of_int (Int64.to_int x)) x

let check_at s off =
  if not (int_field s off 0) then raise (Wire.Malformed "txn: key out of range");
  match String.get_int64_be s (off + 8) with
  | 0L ->
      if not (Int64.equal (String.get_int64_be s (off + 16)) 0L) then
        raise (Wire.Malformed "txn: read carries a value")
  | 1L ->
      if not (int_field s off 2) then
        raise (Wire.Malformed "txn: value out of range")
  | tag -> raise (Wire.Malformed (Printf.sprintf "txn: bad op tag %Ld" tag))

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
