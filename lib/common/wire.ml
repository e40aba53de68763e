exception Malformed of string

(* --- reader ------------------------------------------------------------- *)

type reader = { buf : string; mutable pos : int; limit : int }

let reader buf ~pos ~limit = { buf; pos; limit }

(* [pos <= limit] always holds, so [limit - pos] cannot overflow, while
   [pos + n] can for a forged [n]. *)
let need r n =
  if n < 0 || n > r.limit - r.pos then raise (Malformed "truncated input")

let skip r n =
  need r n;
  r.pos <- r.pos + n

let int r =
  need r 8;
  let v = Int64.to_int (String.get_int64_be r.buf r.pos) in
  r.pos <- r.pos + 8;
  v

let byte r =
  need r 1;
  let c = r.buf.[r.pos] in
  r.pos <- r.pos + 1;
  c

let bool r =
  match byte r with
  | '\x00' -> false
  | '\x01' -> true
  | _ -> raise (Malformed "bad boolean")

let count r ~max what =
  let n = int r in
  if n < 0 || n > max then raise (Malformed ("bad " ^ what));
  n

let string r ~max =
  let n = count r ~max "string length" in
  need r n;
  let s = String.sub r.buf r.pos n in
  r.pos <- r.pos + n;
  s

let int_list r ~max = List.init (count r ~max "list length") (fun _ -> int r)

let magic r m =
  let n = String.length m in
  let rec same i = i = n || (r.buf.[r.pos + i] = m.[i] && same (i + 1)) in
  if n > r.limit - r.pos || not (same 0) then raise (Malformed "bad magic");
  r.pos <- r.pos + n

let finish r = if r.pos <> r.limit then raise (Malformed "trailing bytes")

let decode read s =
  let r = reader s ~pos:0 ~limit:(String.length s) in
  match
    let v = read r in
    finish r;
    v
  with
  | v -> Ok v
  | exception Malformed e -> Error e

(* --- writer ------------------------------------------------------------- *)

let string_size s = 8 + String.length s
let int_list_size l = 8 * (1 + List.length l)

let put_int b v off =
  Bytes.set_int64_be b off (Int64.of_int v);
  off + 8

let put_byte b c off =
  Bytes.set b off c;
  off + 1

let put_bool b v off = put_byte b (if v then '\x01' else '\x00') off

let put_raw b s off =
  let n = String.length s in
  Bytes.blit_string s 0 b off n;
  off + n

let put_string b s off = put_raw b s (put_int b (String.length s) off)

(* Top-level recursion rather than an iterator with a closure over [b],
   so writing a list allocates nothing. *)
let rec put_ints b l off =
  match l with [] -> off | v :: rest -> put_ints b rest (put_int b v off)

let put_int_list b l off = put_ints b l (put_int b (List.length l) off)
