(* FIPS 180-4, allocation-free.

   Words are kept in the low 32 bits of a wider machine word and masked
   after additions: the state and message schedule in OCaml's 63-bit
   [int], the compression rounds in unboxed [nativeint] locals (see
   [compress]). The original [int32]-based version boxed every
   intermediate (about 4.7 minor-heap words per message byte), and
   hashing is a large share of the simulator's wall-clock profile (each
   client batch is hashed once at creation, and every replica hashes
   blocks, results and certificates). Digests are bit-identical to the boxed
   implementation; the test suite checks the FIPS vectors and a rolled
   reference kernel. *)

let mask = 0xffffffff

let k =
  [|
    0x428a2f98; 0x71374491; 0xb5c0fbcf; 0xe9b5dba5; 0x3956c25b;
    0x59f111f1; 0x923f82a4; 0xab1c5ed5; 0xd807aa98; 0x12835b01;
    0x243185be; 0x550c7dc3; 0x72be5d74; 0x80deb1fe; 0x9bdc06a7;
    0xc19bf174; 0xe49b69c1; 0xefbe4786; 0x0fc19dc6; 0x240ca1cc;
    0x2de92c6f; 0x4a7484aa; 0x5cb0a9dc; 0x76f988da; 0x983e5152;
    0xa831c66d; 0xb00327c8; 0xbf597fc7; 0xc6e00bf3; 0xd5a79147;
    0x06ca6351; 0x14292967; 0x27b70a85; 0x2e1b2138; 0x4d2c6dfc;
    0x53380d13; 0x650a7354; 0x766a0abb; 0x81c2c92e; 0x92722c85;
    0xa2bfe8a1; 0xa81a664b; 0xc24b8b70; 0xc76c51a3; 0xd192e819;
    0xd6990624; 0xf40e3585; 0x106aa070; 0x19a4c116; 0x1e376c08;
    0x2748774c; 0x34b0bcb5; 0x391c0cb3; 0x4ed8aa4a; 0x5b9cca4f;
    0x682e6ff3; 0x748f82ee; 0x78a5636f; 0x84c87814; 0x8cc70208;
    0x90befffa; 0xa4506ceb; 0xbef9a3f7; 0xc67178f2;
  |]

type ctx = {
  h : int array; (* 8 state words *)
  buf : Bytes.t; (* 64-byte block buffer *)
  mutable buf_len : int;
  mutable total : int; (* total message bytes *)
  w : int array; (* message schedule scratch *)
}

let init () =
  {
    h =
      [|
        0x6a09e667; 0xbb67ae85; 0x3c6ef372; 0xa54ff53a; 0x510e527f;
        0x9b05688c; 0x1f83d9ab; 0x5be0cd19;
      |];
    buf = Bytes.create 64;
    buf_len = 0;
    total = 0;
    w = Array.make 64 0;
  }

(* The compression rounds run on [nativeint] locals, which ocamlopt keeps
   unboxed in registers: untagged 64-bit words, so no tag fix-ups per
   operation. A 32-bit word [x] doubled into both halves of a 64-bit one
   turns every rotation into one shift: bits [0, 32) of
   [(x lor (x lsl 32)) lsr n] are [rotr x n]. *)
let mask_n = 0xffffffffn
let[@inline] double x = Nativeint.logor x (Nativeint.shift_left x 32)
let[@inline] shr x n = Nativeint.shift_right_logical x n

(* Σ0 = rotr 2 13 22, Σ1 = rotr 6 11 25 (rounds). *)
let[@inline] big_sigma x r1 r2 r3 =
  let d = double x in
  Nativeint.logand
    (Nativeint.logxor (shr d r1) (Nativeint.logxor (shr d r2) (shr d r3)))
    mask_n

(* σ0 = rotr 7 18, shr 3; σ1 = rotr 17 19, shr 10 (message schedule). *)
let[@inline] small_sigma x r1 r2 s =
  let d = double x in
  Nativeint.logxor
    (Nativeint.logand (Nativeint.logxor (shr d r1) (shr d r2)) mask_n)
    (shr x s)

(* Ch(e, f, g) = g xor (e and (f xor g)); Maj(a, b, c) =
   (a and b) or (c and (a or b)). *)
let[@inline] ch e f g =
  Nativeint.logxor g (Nativeint.logand e (Nativeint.logxor f g))

let[@inline] maj a b c =
  Nativeint.logor (Nativeint.logand a b)
    (Nativeint.logand c (Nativeint.logor a b))

(* One round's [t1] for round [t]: a sum of five 32-bit values, so it
   fits a native word unmasked; masking happens once where it lands. *)
let[@inline] t1 w t e f g h =
  Nativeint.add
    (Nativeint.add h (big_sigma e 6 11 25))
    (Nativeint.add (ch e f g)
       (Nativeint.of_int (Array.unsafe_get k t + Array.unsafe_get w t)))

let[@inline] t2 a b c = Nativeint.add (big_sigma a 2 13 22) (maj a b c)
let[@inline] add_mask x y = Nativeint.logand (Nativeint.add x y) mask_n

(* One unchecked 32-bit load per message word; callers guarantee
   [off + 64 <= Bytes.length block]. *)
external get32u : Bytes.t -> int -> int32 = "%caml_bytes_get32u"
external bswap32 : int32 -> int32 = "%bswap_int32"

let[@inline] load_be32 b i =
  if Sys.big_endian then get32u b i else bswap32 (get32u b i)

(* 64-byte compressions since the program started: the exact hash work,
   read by the perf harness ({!compressions}). *)
let blocks = ref 0

let compress ctx block off =
  incr blocks;
  let w = ctx.w in
  for t = 0 to 15 do
    Array.unsafe_set w t
      (Int32.to_int (load_be32 block (off + (4 * t))) land mask)
  done;
  for t = 16 to 63 do
    let x15 = Nativeint.of_int (Array.unsafe_get w (t - 15)) in
    let x2 = Nativeint.of_int (Array.unsafe_get w (t - 2)) in
    let s0 = small_sigma x15 7 18 3 and s1 = small_sigma x2 17 19 10 in
    Array.unsafe_set w t
      ((Array.unsafe_get w (t - 16) + Array.unsafe_get w (t - 7)
       + Nativeint.to_int (Nativeint.add s0 s1))
      land mask)
  done;
  let st = ctx.h in
  let ra = ref (Nativeint.of_int st.(0)) in
  let rb = ref (Nativeint.of_int st.(1)) in
  let rc = ref (Nativeint.of_int st.(2)) in
  let rd = ref (Nativeint.of_int st.(3)) in
  let re = ref (Nativeint.of_int st.(4)) in
  let rf = ref (Nativeint.of_int st.(5)) in
  let rg = ref (Nativeint.of_int st.(6)) in
  let rh = ref (Nativeint.of_int st.(7)) in
  (* Eight rounds per iteration. Each round writes only its new [e] and
     [a], under the names of the retiring [d] and [h]; the roles rotate
     one name per round, so after eight rounds every name is back in its
     own role and no value is moved. *)
  for i = 0 to 7 do
    let t = 8 * i in
    let a = !ra and b = !rb and c = !rc and d = !rd in
    let e = !re and f = !rf and g = !rg and h = !rh in
    let x = t1 w t e f g h in
    let d = add_mask d x and h = add_mask x (t2 a b c) in
    let x = t1 w (t + 1) d e f g in
    let c = add_mask c x and g = add_mask x (t2 h a b) in
    let x = t1 w (t + 2) c d e f in
    let b = add_mask b x and f = add_mask x (t2 g h a) in
    let x = t1 w (t + 3) b c d e in
    let a = add_mask a x and e = add_mask x (t2 f g h) in
    let x = t1 w (t + 4) a b c d in
    let h = add_mask h x and d = add_mask x (t2 e f g) in
    let x = t1 w (t + 5) h a b c in
    let g = add_mask g x and c = add_mask x (t2 d e f) in
    let x = t1 w (t + 6) g h a b in
    let f = add_mask f x and b = add_mask x (t2 c d e) in
    let x = t1 w (t + 7) f g h a in
    let e = add_mask e x and a = add_mask x (t2 b c d) in
    ra := a;
    rb := b;
    rc := c;
    rd := d;
    re := e;
    rf := f;
    rg := g;
    rh := h
  done;
  st.(0) <- (st.(0) + Nativeint.to_int !ra) land mask;
  st.(1) <- (st.(1) + Nativeint.to_int !rb) land mask;
  st.(2) <- (st.(2) + Nativeint.to_int !rc) land mask;
  st.(3) <- (st.(3) + Nativeint.to_int !rd) land mask;
  st.(4) <- (st.(4) + Nativeint.to_int !re) land mask;
  st.(5) <- (st.(5) + Nativeint.to_int !rf) land mask;
  st.(6) <- (st.(6) + Nativeint.to_int !rg) land mask;
  st.(7) <- (st.(7) + Nativeint.to_int !rh) land mask

let update_sub ctx s off len =
  if off < 0 || len < 0 || off > String.length s - len then
    invalid_arg "Sha256.update_sub";
  ctx.total <- ctx.total + len;
  let stop = off + len in
  let pos = ref off in
  (* Fill a partial block first. *)
  if ctx.buf_len > 0 then begin
    let room = 64 - ctx.buf_len in
    let take = if room < len then room else len in
    Bytes.blit_string s off ctx.buf ctx.buf_len take;
    ctx.buf_len <- ctx.buf_len + take;
    pos := off + take;
    if ctx.buf_len = 64 then begin
      compress ctx ctx.buf 0;
      ctx.buf_len <- 0
    end
  end;
  (* Whole blocks straight from the input, no copy. *)
  let block = Bytes.unsafe_of_string s in
  while stop - !pos >= 64 do
    compress ctx block !pos;
    pos := !pos + 64
  done;
  if !pos < stop then begin
    Bytes.blit_string s !pos ctx.buf 0 (stop - !pos);
    ctx.buf_len <- stop - !pos
  end

let update ctx s = update_sub ctx s 0 (String.length s)

let finalize ctx =
  let bits = Int64.of_int (8 * ctx.total) in
  (* Append 0x80, zero-pad to 56 mod 64, append 64-bit length. *)
  Bytes.set ctx.buf ctx.buf_len '\x80';
  ctx.buf_len <- ctx.buf_len + 1;
  if ctx.buf_len > 56 then begin
    Bytes.fill ctx.buf ctx.buf_len (64 - ctx.buf_len) '\x00';
    compress ctx ctx.buf 0;
    ctx.buf_len <- 0
  end;
  Bytes.fill ctx.buf ctx.buf_len (56 - ctx.buf_len) '\x00';
  Rcc_common.Bytes_util.put_u64be ctx.buf 56 bits;
  compress ctx ctx.buf 0;
  let out = Bytes.create 32 in
  for i = 0 to 7 do
    Rcc_common.Bytes_util.put_u32be out (4 * i) (Int32.of_int ctx.h.(i))
  done;
  Bytes.unsafe_to_string out

(* One-shot digests run through a reused scratch context: small digests
   (40–120 byte certificate/result hashes) are frequent enough in the
   simulator that the per-call context allocation shows up. [finalize]
   leaves the context dirty, so it is re-initialized on entry. The
   simulator is single-threaded; nested use is impossible because these
   functions never call out. *)
let scratch = init ()

let reset ctx =
  ctx.h.(0) <- 0x6a09e667;
  ctx.h.(1) <- 0xbb67ae85;
  ctx.h.(2) <- 0x3c6ef372;
  ctx.h.(3) <- 0xa54ff53a;
  ctx.h.(4) <- 0x510e527f;
  ctx.h.(5) <- 0x9b05688c;
  ctx.h.(6) <- 0x1f83d9ab;
  ctx.h.(7) <- 0x5be0cd19;
  ctx.buf_len <- 0;
  ctx.total <- 0

let kernel s len =
  reset scratch;
  update_sub scratch s 0 len;
  finalize scratch

(* --- memo ----------------------------------------------------------------

   The replicas of one simulated cluster hash the same short inputs:
   every replica computes the same block hash, result digest, history
   chain link and permutation seed from the same bytes, microseconds of
   host time apart. A direct-mapped table keyed by the input's bytes
   returns the digest the first of them computed. Only inputs up to
   [memo_limit] bytes take it; longer ones (batch payloads) go straight
   to the kernel. A hit returns the digest string the miss stored, so
   digests are shared and must never be mutated. Keys are copied into
   the slot's own buffer on insert: callers hash reused, mutated buffers
   ([Kv_store.state_digest]), and an entry must never alias one. The
   table is pure: a hit returns exactly the kernel's digest of the same
   bytes. *)

let memo_limit = 512
let memo_slots = 4096 (* a power of two *)

(* The input, copied and zero-padded to a whole number of 8-byte words,
   so hashing and comparing read words. *)
let memo_in = Bytes.create (memo_limit + 8)

(* Per slot: the key's length (-1 when empty), its padded bytes in a
   buffer reused while it is large enough, and its digest. *)
let memo_len = Array.make memo_slots (-1)
let memo_key = Array.make memo_slots Bytes.empty
let memo_digest = Array.make memo_slots ""

external get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"

let[@inline] word b i = get64u b (8 * i)

(* All 64 bits of word [i] folded into an [int] for the slot hash; keys
   are compared as whole [int64] words. *)
let[@inline] word_bits b i =
  let x = word b i in
  Int64.to_int x lxor Int64.to_int (Int64.shift_right_logical x 32)

let memo_slot_of_input len =
  let words = (len + 7) lsr 3 in
  let h = ref (len * 0x2545F4914F6CDD1D) in
  for i = 0 to words - 1 do
    let x = (!h + word_bits memo_in i) * 0x1F3D5B79A3C5E7 in
    h := x lxor (x lsr 29)
  done;
  let x = !h * 0x27D4EB2F165667C5 in
  (x lxor (x lsr 32)) land (memo_slots - 1)

let memo_hit i len =
  memo_len.(i) = len
  &&
  let key = memo_key.(i) in
  let w = ref ((len + 7) lsr 3) in
  while !w > 0 && (word key (!w - 1) : int64) = word memo_in (!w - 1) do
    decr w
  done;
  !w = 0

(* Zero-pad the [len] bytes staged in [memo_in] to whole words; their
   slot. *)
let staged_slot len =
  Bytes.fill memo_in len (((len + 7) land lnot 7) - len) '\x00';
  memo_slot_of_input len

(* Digest of the [len] bytes staged in [memo_in]. *)
let memoized len =
  let padded = (len + 7) land lnot 7 in
  let i = staged_slot len in
  if memo_hit i len then memo_digest.(i)
  else begin
    let d = kernel (Bytes.unsafe_to_string memo_in) len in
    if Bytes.length memo_key.(i) < padded then
      memo_key.(i) <- Bytes.create padded;
    Bytes.blit memo_in 0 memo_key.(i) 0 padded;
    memo_len.(i) <- len;
    memo_digest.(i) <- d;
    d
  end

let digest s =
  let len = String.length s in
  if len > memo_limit then kernel s len
  else begin
    Bytes.blit_string s 0 memo_in 0 len;
    memoized len
  end

let digest_list parts =
  let len = List.fold_left (fun acc p -> acc + String.length p) 0 parts in
  if len > memo_limit then begin
    reset scratch;
    List.iter (update scratch) parts;
    finalize scratch
  end
  else begin
    ignore
      (List.fold_left
         (fun off p ->
           Bytes.blit_string p 0 memo_in off (String.length p);
           off + String.length p)
         0 parts);
    memoized len
  end

let memo_slot s =
  let len = String.length s in
  if len > memo_limit then None
  else begin
    Bytes.blit_string s 0 memo_in 0 len;
    Some (staged_slot len)
  end

let compressions () = !blocks

(* Midstates let HMAC skip re-hashing its 64-byte pad blocks: the state
   after absorbing one full block is captured once per key and splices
   into the scratch context per call. Digests are byte-identical — the
   midstate is exactly what [update] would have produced. *)
type midstate = int array

let block_midstate block =
  if String.length block <> 64 then
    invalid_arg "Sha256.block_midstate: block must be 64 bytes";
  let ctx = init () in
  update ctx block;
  Array.copy ctx.h

let digest_list_from ms parts =
  Array.blit ms 0 scratch.h 0 8;
  scratch.buf_len <- 0;
  scratch.total <- 64;
  List.iter (update scratch) parts;
  finalize scratch

let hex_digest s = Rcc_common.Bytes_util.hex (digest s)
