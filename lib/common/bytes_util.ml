let hex s =
  let n = String.length s in
  let out = Bytes.create (2 * n) in
  let digit k = "0123456789abcdef".[k] in
  for i = 0 to n - 1 do
    let c = Char.code s.[i] in
    Bytes.set out (2 * i) (digit (c lsr 4));
    Bytes.set out ((2 * i) + 1) (digit (c land 0xf))
  done;
  Bytes.unsafe_to_string out

let of_hex s =
  let n = String.length s in
  if n mod 2 <> 0 then invalid_arg "Bytes_util.of_hex: odd length";
  let nibble c =
    match c with
    | '0' .. '9' -> Char.code c - Char.code '0'
    | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
    | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
    | _ -> invalid_arg "Bytes_util.of_hex: bad digit"
  in
  let out = Bytes.create (n / 2) in
  for i = 0 to (n / 2) - 1 do
    Bytes.set out i
      (Char.chr ((nibble s.[2 * i] lsl 4) lor nibble s.[(2 * i) + 1]))
  done;
  Bytes.unsafe_to_string out

let xor a b =
  let n = String.length a in
  if String.length b <> n then invalid_arg "Bytes_util.xor: length mismatch";
  let out = Bytes.create n in
  for i = 0 to n - 1 do
    Bytes.set out i (Char.chr (Char.code a.[i] lxor Char.code b.[i]))
  done;
  Bytes.unsafe_to_string out

(* The stdlib's endian-aware accessors: one machine store or load, plus a
   byte swap on little-endian hosts. *)
let put_u32be = Bytes.set_int32_be
let put_u64be = Bytes.set_int64_be
let get_u64be = String.get_int64_be

let u64_string v =
  let b = Bytes.create 8 in
  Bytes.set_int64_be b 0 v;
  Bytes.unsafe_to_string b
