(* XXH64 (Yann Collet's xxHash, 64-bit variant), seed 0, streaming.

   Lanes and input words are [int64] locals, which ocamlopt keeps
   unboxed; the state lives in one [Bytes] (four lanes, then the partial
   stripe), so absorbing allocates nothing. *)

let p1 = 0x9E3779B185EBCA87L
let p2 = 0xC2B2AE3D27D4EB4FL
let p3 = 0x165667B19E3779F9L
let p4 = 0x85EBCA77C2B2AE63L
let p5 = 0x27D4EB2F165667C5L

external get64u : string -> int -> int64 = "%caml_string_get64u"
external get32u : string -> int -> int32 = "%caml_string_get32u"
external bget64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external bset64u : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"
external bswap64 : int64 -> int64 = "%bswap_int64"
external bswap32 : int32 -> int32 = "%bswap_int32"

let[@inline] le64 s i =
  if Sys.big_endian then bswap64 (get64u s i) else get64u s i

let[@inline] le32 s i =
  let x = if Sys.big_endian then bswap32 (get32u s i) else get32u s i in
  Int64.logand (Int64.of_int32 x) 0xFFFF_FFFFL

let[@inline] rotl x r =
  Int64.logor (Int64.shift_left x r) (Int64.shift_right_logical x (64 - r))

let[@inline] round acc x =
  Int64.mul (rotl (Int64.add acc (Int64.mul x p2)) 31) p1

let[@inline] merge acc v =
  Int64.add (Int64.mul (Int64.logxor acc (round 0L v)) p1) p4

(* [st]: lanes v1..v4 at 0, 8, 16, 24 (native order), the partial
   stripe at 32. *)
type t = { st : Bytes.t; mutable buffered : int; mutable total : int }

let reset t =
  bset64u t.st 0 (Int64.add p1 p2);
  bset64u t.st 8 p2;
  bset64u t.st 16 0L;
  bset64u t.st 24 (Int64.neg p1);
  t.buffered <- 0;
  t.total <- 0

let create () =
  let t = { st = Bytes.create 64; buffered = 0; total = 0 } in
  reset t;
  t

(* Absorb [n] whole 32-byte stripes of [s] from [off]. *)
let stripes t s off n =
  let st = t.st in
  let v1 = ref (bget64u st 0) and v2 = ref (bget64u st 8) in
  let v3 = ref (bget64u st 16) and v4 = ref (bget64u st 24) in
  for i = 0 to n - 1 do
    let p = off + (32 * i) in
    v1 := round !v1 (le64 s p);
    v2 := round !v2 (le64 s (p + 8));
    v3 := round !v3 (le64 s (p + 16));
    v4 := round !v4 (le64 s (p + 24))
  done;
  bset64u st 0 !v1;
  bset64u st 8 !v2;
  bset64u st 16 !v3;
  bset64u st 24 !v4

let update_sub t s off len =
  if off < 0 || len < 0 || off > String.length s - len then
    invalid_arg "Xxh64.update_sub";
  t.total <- t.total + len;
  let stop = off + len in
  let pos = ref off in
  if t.buffered > 0 then begin
    let take = min (32 - t.buffered) len in
    Bytes.blit_string s off t.st (32 + t.buffered) take;
    t.buffered <- t.buffered + take;
    pos := off + take;
    if t.buffered = 32 then begin
      stripes t (Bytes.unsafe_to_string t.st) 32 1;
      t.buffered <- 0
    end
  end;
  let n = (stop - !pos) / 32 in
  if n > 0 then begin
    stripes t s !pos n;
    pos := !pos + (32 * n)
  end;
  if !pos < stop then begin
    Bytes.blit_string s !pos t.st 32 (stop - !pos);
    t.buffered <- stop - !pos
  end

let update t s = update_sub t s 0 (String.length s)

let finalize t =
  let st = t.st in
  let h =
    if t.total >= 32 then begin
      let v1 = bget64u st 0 and v2 = bget64u st 8 in
      let v3 = bget64u st 16 and v4 = bget64u st 24 in
      let h =
        Int64.add
          (Int64.add (rotl v1 1) (rotl v2 7))
          (Int64.add (rotl v3 12) (rotl v4 18))
      in
      merge (merge (merge (merge h v1) v2) v3) v4
    end
    else p5
  in
  let h = ref (Int64.add h (Int64.of_int t.total)) in
  let s = Bytes.unsafe_to_string st in
  let p = ref 32 and stop = 32 + t.buffered in
  while !p + 8 <= stop do
    h := Int64.logxor !h (round 0L (le64 s !p));
    h := Int64.add (Int64.mul (rotl !h 27) p1) p4;
    p := !p + 8
  done;
  if !p + 4 <= stop then begin
    h := Int64.logxor !h (Int64.mul (le32 s !p) p1);
    h := Int64.add (Int64.mul (rotl !h 23) p2) p3;
    p := !p + 4
  end;
  while !p < stop do
    h := Int64.logxor !h (Int64.mul (Int64.of_int (Char.code s.[!p])) p5);
    h := Int64.mul (rotl !h 11) p1;
    incr p
  done;
  let h = !h in
  let h = Int64.mul (Int64.logxor h (Int64.shift_right_logical h 33)) p2 in
  let h = Int64.mul (Int64.logxor h (Int64.shift_right_logical h 29)) p3 in
  Int64.logxor h (Int64.shift_right_logical h 32)

let digest s =
  let t = create () in
  update t s;
  finalize t
