(* FIPS 180-4 over native [int] arithmetic.

   Words are kept in the low 32 bits of OCaml's 63-bit int and masked
   after additions. This keeps the compression loop allocation-free —
   the original [int32]-based version boxed every intermediate (about
   4.7 minor-heap words per message byte), and hashing is a large share
   of the simulator's wall-clock profile (each client batch is hashed
   once at creation; a replica re-hashes only a batch it did not receive
   by reference). Digests are bit-identical to the boxed implementation;
   verified against the FIPS vectors in the test suite. *)

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

let[@inline] rotr x n = ((x lsr n) lor (x lsl (32 - n))) land mask

let compress ctx block off =
  let w = ctx.w in
  for t = 0 to 15 do
    let i = off + (4 * t) in
    Array.unsafe_set w t
      ((Char.code (Bytes.unsafe_get block i) lsl 24)
      lor (Char.code (Bytes.unsafe_get block (i + 1)) lsl 16)
      lor (Char.code (Bytes.unsafe_get block (i + 2)) lsl 8)
      lor Char.code (Bytes.unsafe_get block (i + 3)))
  done;
  for t = 16 to 63 do
    let x15 = Array.unsafe_get w (t - 15) in
    let x2 = Array.unsafe_get w (t - 2) in
    let s0 = rotr x15 7 lxor rotr x15 18 lxor (x15 lsr 3) in
    let s1 = rotr x2 17 lxor rotr x2 19 lxor (x2 lsr 10) in
    Array.unsafe_set w t
      ((Array.unsafe_get w (t - 16) + s0 + Array.unsafe_get w (t - 7) + s1)
      land mask)
  done;
  let h = ctx.h in
  let a = ref h.(0) and b = ref h.(1) and c = ref h.(2) and d = ref h.(3) in
  let e = ref h.(4) and f = ref h.(5) and g = ref h.(6) and hh = ref h.(7) in
  for t = 0 to 63 do
    let s1 = rotr !e 6 lxor rotr !e 11 lxor rotr !e 25 in
    (* [lnot !e] sets the bits above 32 too; [land !g] clears them. *)
    let ch = (!e land !f) lxor (lnot !e land !g) in
    (* [t1]/[t2] are sums of a few 32-bit values, so they fit a native
       int unmasked; masking happens once where they land in [e]/[a]
       (whose bits feed the next round's rotations). *)
    let t1 = !hh + s1 + ch + Array.unsafe_get k t + Array.unsafe_get w t in
    let s0 = rotr !a 2 lxor rotr !a 13 lxor rotr !a 22 in
    let maj = (!a land !b) lxor (!a land !c) lxor (!b land !c) in
    let t2 = s0 + maj in
    hh := !g;
    g := !f;
    f := !e;
    e := (!d + t1) land mask;
    d := !c;
    c := !b;
    b := !a;
    a := (t1 + t2) land mask
  done;
  h.(0) <- (h.(0) + !a) land mask;
  h.(1) <- (h.(1) + !b) land mask;
  h.(2) <- (h.(2) + !c) land mask;
  h.(3) <- (h.(3) + !d) land mask;
  h.(4) <- (h.(4) + !e) land mask;
  h.(5) <- (h.(5) + !f) land mask;
  h.(6) <- (h.(6) + !g) land mask;
  h.(7) <- (h.(7) + !hh) land mask

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

let digest s =
  reset scratch;
  update scratch s;
  finalize scratch

let digest_list parts =
  reset scratch;
  List.iter (update scratch) parts;
  finalize scratch

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
