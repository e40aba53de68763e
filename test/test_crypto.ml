(* Crypto tests against published vectors plus properties. *)

module Sha256 = Rcc_crypto.Sha256
module Hmac = Rcc_crypto.Hmac
module Signature = Rcc_crypto.Signature
module Keychain = Rcc_crypto.Keychain
module Bytes_util = Rcc_common.Bytes_util

let check = Alcotest.check
let qtest ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* --- SHA-256 (FIPS 180-4 / NIST CAVS vectors) ----------------------------- *)

let sha_vectors =
  [
    ("", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
    ("abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
    ( "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1" );
    ( String.make 1_000_000 'a',
      "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0" );
  ]

(* NIST CAVS SHA256ShortMsg samples (hex message -> digest). *)
let sha_cavs_vectors =
  [
    ("d3", "28969cdfa74a12c82f3bad960b0b000aca2ac329deea5c2328ebc6f2ba9802c1");
    ("11af", "5ca7133fa735326081558ac312c620eeca9970d1e70a4b95533d956f072d1f98");
    ("b4190e", "dff2e73091f6c05e528896c4c831b9448653dc2ff043528f6769437bc7b975c2");
    ( "c299209682",
      "f0887fe961c9cd3beab957e8222494abb969b1ce4c6557976df8b0f6d20e9166" );
    ( "7c9c67323a1df1adbfe5ceb415eaef0155ece2820f4d50c1ec22cba4928ac656c83fe585db6a78ce40bc42757aba7e5a3f582428d6ca68d0c3978336a6efb729613e8d9979016204bfd921322fdd5222183554447de5e6e9bbe6edf76d7b71e18dc2e8d6dc89b7398364f652fafc734329aafa3dcd45d4f31e388e4fafd7fc6495f37ca5cbab7f54d586463da4bfeaa3bae09f7b8e9239d832b4f0a733aa609cc1f8d4",
      "7aa559818f437b8c233765891790558ac03eef15c665c9ae7bfed7b65ea48b58" );
  ]

let test_sha256_vectors () =
  List.iter
    (fun (msg, expected) ->
      check Alcotest.string "digest" expected (Sha256.hex_digest msg))
    sha_vectors;
  List.iter
    (fun (hex_msg, expected) ->
      check Alcotest.string "cavs" expected
        (Sha256.hex_digest (Bytes_util.of_hex hex_msg)))
    sha_cavs_vectors

(* [update_sub] over every two-way split of each vector, read out of a
   padded string so the offsets are not 0. The million-byte vector is
   split at block-boundary offsets only. *)
let test_sha256_update_sub () =
  let messages =
    List.map fst sha_vectors
    @ List.map (fun (hex, _) -> Bytes_util.of_hex hex) sha_cavs_vectors
  in
  List.iter
    (fun msg ->
      let len = String.length msg in
      let padded = "pad" ^ msg ^ "ding" in
      let want = Sha256.digest msg in
      let splits =
        if len > 10_000 then [ 0; 1; 63; 64; 65; 127; 128; len / 2; len - 1; len ]
        else List.init (len + 1) Fun.id
      in
      List.iter
        (fun k ->
          let ctx = Sha256.init () in
          Sha256.update_sub ctx padded 3 k;
          Sha256.update_sub ctx padded (3 + k) (len - k);
          if not (String.equal want (Sha256.finalize ctx)) then
            Alcotest.failf "%d-byte message split at %d" len k)
        splits)
    messages;
  check Alcotest.bool "range outside the string rejected" true
    (match Sha256.update_sub (Sha256.init ()) "abc" 2 2 with
    | () -> false
    | exception Invalid_argument _ -> true)

(* The rolled compression kernel the unrolled one replaced, kept as a
   test-only reference: one round per iteration over 63-bit ints, with
   every rotation masked. [ref_digest] pads the whole message and runs
   it block by block. *)
let ref_k =
  [|
    0x428a2f98; 0x71374491; 0xb5c0fbcf; 0xe9b5dba5; 0x3956c25b; 0x59f111f1;
    0x923f82a4; 0xab1c5ed5; 0xd807aa98; 0x12835b01; 0x243185be; 0x550c7dc3;
    0x72be5d74; 0x80deb1fe; 0x9bdc06a7; 0xc19bf174; 0xe49b69c1; 0xefbe4786;
    0x0fc19dc6; 0x240ca1cc; 0x2de92c6f; 0x4a7484aa; 0x5cb0a9dc; 0x76f988da;
    0x983e5152; 0xa831c66d; 0xb00327c8; 0xbf597fc7; 0xc6e00bf3; 0xd5a79147;
    0x06ca6351; 0x14292967; 0x27b70a85; 0x2e1b2138; 0x4d2c6dfc; 0x53380d13;
    0x650a7354; 0x766a0abb; 0x81c2c92e; 0x92722c85; 0xa2bfe8a1; 0xa81a664b;
    0xc24b8b70; 0xc76c51a3; 0xd192e819; 0xd6990624; 0xf40e3585; 0x106aa070;
    0x19a4c116; 0x1e376c08; 0x2748774c; 0x34b0bcb5; 0x391c0cb3; 0x4ed8aa4a;
    0x5b9cca4f; 0x682e6ff3; 0x748f82ee; 0x78a5636f; 0x84c87814; 0x8cc70208;
    0x90befffa; 0xa4506ceb; 0xbef9a3f7; 0xc67178f2;
  |]

let ref_compress h block off =
  let mask = 0xffffffff in
  let rotr x n = ((x lsr n) lor (x lsl (32 - n))) land mask in
  let w = Array.make 64 0 in
  for t = 0 to 15 do
    let i = off + (4 * t) in
    w.(t) <-
      (Char.code block.[i] lsl 24)
      lor (Char.code block.[i + 1] lsl 16)
      lor (Char.code block.[i + 2] lsl 8)
      lor Char.code block.[i + 3]
  done;
  for t = 16 to 63 do
    let x15 = w.(t - 15) and x2 = w.(t - 2) in
    let s0 = rotr x15 7 lxor rotr x15 18 lxor (x15 lsr 3) in
    let s1 = rotr x2 17 lxor rotr x2 19 lxor (x2 lsr 10) in
    w.(t) <- (w.(t - 16) + s0 + w.(t - 7) + s1) land mask
  done;
  let a = ref h.(0) and b = ref h.(1) and c = ref h.(2) and d = ref h.(3) in
  let e = ref h.(4) and f = ref h.(5) and g = ref h.(6) and hh = ref h.(7) in
  for t = 0 to 63 do
    let s1 = rotr !e 6 lxor rotr !e 11 lxor rotr !e 25 in
    let ch = (!e land !f) lxor (lnot !e land !g) in
    let t1 = !hh + s1 + ch + ref_k.(t) + w.(t) in
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
  List.iteri
    (fun i v -> h.(i) <- (h.(i) + v) land mask)
    [ !a; !b; !c; !d; !e; !f; !g; !hh ]

let ref_digest msg =
  let len = String.length msg in
  let padded_len = (len + 9 + 63) / 64 * 64 in
  let p = Bytes.make padded_len '\x00' in
  Bytes.blit_string msg 0 p 0 len;
  Bytes.set p len '\x80';
  Bytes.set_int64_be p (padded_len - 8) (Int64.of_int (8 * len));
  let p = Bytes.to_string p in
  let h =
    [|
      0x6a09e667; 0xbb67ae85; 0x3c6ef372; 0xa54ff53a; 0x510e527f; 0x9b05688c;
      0x1f83d9ab; 0x5be0cd19;
    |]
  in
  for blk = 0 to (padded_len / 64) - 1 do
    ref_compress h p (64 * blk)
  done;
  let out = Bytes.create 32 in
  Array.iteri (fun i v -> Bytes.set_int32_be out (4 * i) (Int32.of_int v)) h;
  Bytes.to_string out

let test_sha256_reference_vectors () =
  List.iter
    (fun (msg, expected) ->
      check Alcotest.string "reference kernel" expected
        (Bytes_util.hex (ref_digest msg)))
    sha_vectors

(* Random messages of 0-4 KiB, fed to the unrolled kernel through random
   [update_sub] splits, against the rolled reference's one-shot digest. *)
let sha_kernel_oracle =
  qtest ~count:200 "sha256: unrolled kernel = rolled reference"
    QCheck2.Gen.(
      pair (string_size (int_range 0 4096)) (list_size (int_range 0 6) nat))
    (fun (msg, cuts) ->
      let len = String.length msg in
      let cuts =
        List.sort_uniq compare (List.map (fun c -> c mod (len + 1)) cuts)
      in
      let ctx = Sha256.init () in
      let last =
        List.fold_left
          (fun pos cut ->
            Sha256.update_sub ctx msg pos (cut - pos);
            cut)
          0 cuts
      in
      Sha256.update_sub ctx msg last (len - last);
      String.equal (Sha256.finalize ctx) (ref_digest msg))

let sha_incremental =
  qtest "sha256: incremental = one-shot"
    QCheck2.Gen.(list_size (int_range 0 8) string)
    (fun parts ->
      let ctx = Sha256.init () in
      List.iter (Sha256.update ctx) parts;
      Sha256.finalize ctx = Sha256.digest (String.concat "" parts)
      && Sha256.digest_list parts = Sha256.digest (String.concat "" parts))

let sha_distinct =
  qtest "sha256: injective on samples" QCheck2.Gen.(pair string string)
    (fun (a, b) -> a = b || Sha256.digest a <> Sha256.digest b)

(* --- digest memo ---------------------------------------------------------- *)

(* Random sequences of memo traffic, each digest checked against the
   rolled reference kernel above, which has no memo: fresh inputs below,
   at and above [memo_limit]; repeats; the same bytes split differently
   across [digest_list] parts; an input hashed after another one forced
   into its slot (an eviction) and then hashed again; and a buffer
   hashed, mutated in place and hashed again. At the end every digest
   handed out still equals its reference: none was overwritten. *)
type memo_op =
  | Fresh of string
  | Again of int
  | Split of int * int list
  | Collide of int
  | Mutate of int * int * int

let gen_memo_input =
  let limit = Sha256.memo_limit in
  QCheck2.Gen.(
    oneof
      [
        string_size (int_range 0 64);
        string_size (int_range 0 limit);
        string_size (oneofl [ limit - 1; limit; limit + 1 ]);
        string_size (int_range (limit + 1) (2 * limit));
      ])

let gen_memo_op =
  QCheck2.Gen.(
    frequency
      [
        (3, map (fun s -> Fresh s) gen_memo_input);
        (3, map (fun i -> Again i) nat);
        ( 2,
          map2
            (fun i cuts -> Split (i, cuts))
            nat
            (list_size (int_range 0 5) nat) );
        (1, map (fun i -> Collide i) nat);
        ( 1,
          map3
            (fun i j mask -> Mutate (i, j, mask))
            nat nat
            (oneof [ pure 0x80; pure 0x01; int_range 1 255 ]) );
      ])

(* A short input other than [s] that maps to [s]'s memo slot. *)
let slot_mate s =
  let want = Sha256.memo_slot s in
  let rec go k =
    let c = "mate" ^ string_of_int k in
    if c <> s && Sha256.memo_slot c = want then c else go (k + 1)
  in
  go 0

let memo_oracle =
  qtest ~count:150 "sha256 memo: digest/digest_list = uncached reference"
    QCheck2.Gen.(list_size (int_range 1 40) gen_memo_op)
    (fun ops ->
      let inputs = ref [| "" |] in
      let handed = ref [] in
      let ok = ref true in
      let hash_checked f msg =
        let d = f () in
        handed := (d, msg) :: !handed;
        if not (String.equal d (ref_digest msg)) then ok := false
      in
      let nth i = !inputs.(i mod Array.length !inputs) in
      let remember s = inputs := Array.append !inputs [| s |] in
      List.iter
        (function
          | Fresh s ->
              remember s;
              hash_checked (fun () -> Sha256.digest s) s
          | Again i ->
              let s = nth i in
              hash_checked (fun () -> Sha256.digest s) s
          | Split (i, cuts) ->
              let s = nth i in
              let len = String.length s in
              let cuts =
                List.sort_uniq compare
                  (List.map (fun c -> c mod (len + 1)) cuts)
              in
              let parts, last =
                List.fold_left
                  (fun (acc, pos) cut ->
                    (String.sub s pos (cut - pos) :: acc, cut))
                  ([], 0) cuts
              in
              let parts = List.rev (String.sub s last (len - last) :: parts) in
              hash_checked (fun () -> Sha256.digest_list parts) s
          | Collide i -> (
              let s = nth i in
              match Sha256.memo_slot s with
              | None -> hash_checked (fun () -> Sha256.digest s) s
              | Some _ ->
                  let mate = slot_mate s in
                  hash_checked (fun () -> Sha256.digest s) s;
                  hash_checked (fun () -> Sha256.digest mate) mate;
                  hash_checked (fun () -> Sha256.digest_list [ s ]) s)
          | Mutate (i, j, mask) ->
              let s = nth i in
              if s <> "" then begin
                let buf = Bytes.of_string s in
                let in_place () = Sha256.digest (Bytes.unsafe_to_string buf) in
                hash_checked in_place s;
                let j = j mod Bytes.length buf in
                let flipped = Char.code (Bytes.get buf j) lxor mask in
                Bytes.set buf j (Char.chr flipped);
                let s' = Bytes.to_string buf in
                remember s';
                hash_checked in_place s';
                hash_checked (fun () -> Sha256.digest s) s
              end)
        ops;
      !ok
      && List.for_all (fun (d, msg) -> String.equal d (ref_digest msg)) !handed)

(* Inputs one bit apart share a slot only by chance, except the bits a
   word-folding slot hash could drop: flip each bit of every byte of a
   24-byte key (the shape [Kv_store.state_digest] hashes) in a buffer
   hashed in place, the key hashed again after each flip. *)
let test_memo_bit_flips () =
  let key = Bytes.make 24 '\x00' in
  Bytes.set_int64_be key 0 5L;
  Bytes.set_int64_be key 8 7L;
  Bytes.set_int64_be key 16 1L;
  let base = Bytes.to_string key in
  for j = 0 to Bytes.length key - 1 do
    for bit = 0 to 7 do
      Bytes.blit_string base 0 key 0 (String.length base);
      check Alcotest.string "base" (Bytes_util.hex (ref_digest base))
        (Bytes_util.hex (Sha256.digest (Bytes.unsafe_to_string key)));
      Bytes.set key j (Char.chr (Char.code (Bytes.get key j) lxor (1 lsl bit)));
      let flipped = Bytes.to_string key in
      check Alcotest.string
        (Printf.sprintf "byte %d bit %d" j bit)
        (Bytes_util.hex (ref_digest flipped))
        (Bytes_util.hex (Sha256.digest (Bytes.unsafe_to_string key)))
    done
  done

(* The counter is exact: a miss on a 40-byte input runs one compression,
   a hit runs none, and an input past the limit is never memoized. *)
let test_memo_counts () =
  let blocks f =
    let before = Sha256.compressions () in
    ignore (f ());
    Sha256.compressions () - before
  in
  let s = String.init 40 (fun i -> Char.chr (i + 7)) in
  let mate = slot_mate s in
  ignore (Sha256.digest mate);
  check Alcotest.int "miss" 1 (blocks (fun () -> Sha256.digest s));
  check Alcotest.int "hit" 0 (blocks (fun () -> Sha256.digest s));
  check Alcotest.int "hit through digest_list" 0
    (blocks (fun () ->
         Sha256.digest_list [ String.sub s 0 9; String.sub s 9 31 ]));
  check Alcotest.int "evicted by a slot mate" 1
    (blocks (fun () -> Sha256.digest mate));
  check Alcotest.int "miss after eviction" 1
    (blocks (fun () -> Sha256.digest s));
  let long = String.make (Sha256.memo_limit + 1) 'x' in
  check Alcotest.int "past the limit, twice" 18
    (blocks (fun () -> Sha256.digest long)
    + blocks (fun () -> Sha256.digest long));
  check Alcotest.bool "a hit shares the stored digest" true
    (Sha256.digest s == Sha256.digest s)

(* --- HMAC-SHA256 (RFC 4231) ------------------------------------------------ *)

let test_hmac_rfc4231 () =
  (* Test case 1 *)
  let key = String.make 20 '\x0b' in
  check Alcotest.string "tc1"
    "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
    (Bytes_util.hex (Hmac.mac ~key "Hi There"));
  (* Test case 2 *)
  check Alcotest.string "tc2"
    "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
    (Bytes_util.hex (Hmac.mac ~key:"Jefe" "what do ya want for nothing?"));
  (* Test case 3: 20-byte 0xaa key, 50-byte 0xdd data *)
  let key = String.make 20 '\xaa' and data = String.make 50 '\xdd' in
  check Alcotest.string "tc3"
    "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
    (Bytes_util.hex (Hmac.mac ~key data));
  (* Test case 6: oversized key *)
  let key = String.make 131 '\xaa' in
  check Alcotest.string "tc6"
    "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
    (Bytes_util.hex
       (Hmac.mac ~key "Test Using Larger Than Block-Size Key - Hash Key First"))

let hmac_verify_props =
  qtest "hmac: verify accepts valid, rejects tampered"
    QCheck2.Gen.(pair string string)
    (fun (key, msg) ->
      let tag = Hmac.mac ~key msg in
      Hmac.verify ~key msg ~tag
      && (not (Hmac.verify ~key (msg ^ "x") ~tag))
      && not (Hmac.verify ~key:(key ^ "k") msg ~tag))

(* --- signatures -------------------------------------------------------------- *)

let test_signature_basic () =
  let rng = Rcc_common.Rng.create 31 in
  let sk, pk = Signature.keygen rng in
  let sk2, pk2 = Signature.keygen rng in
  let msg = "order batch 42" in
  let signature = Signature.sign sk msg in
  check Alcotest.int "signature size" Signature.signature_size
    (String.length signature);
  check Alcotest.bool "verifies" true (Signature.verify pk msg signature);
  check Alcotest.bool "wrong message" false (Signature.verify pk "other" signature);
  check Alcotest.bool "wrong key" false (Signature.verify pk2 msg signature);
  check Alcotest.bool "unknown pk" false
    (Signature.verify (String.make 32 'z') msg signature);
  check Alcotest.bool "cross-sign" true
    (Signature.verify pk2 msg (Signature.sign sk2 msg));
  check Alcotest.string "public_key accessor" pk (Signature.public_key sk)

let signature_props =
  qtest "signature: sign/verify roundtrip" QCheck2.Gen.(pair small_int string)
    (fun (seed, msg) ->
      let rng = Rcc_common.Rng.create seed in
      let sk, pk = Signature.keygen rng in
      Signature.verify pk msg (Signature.sign sk msg))

(* --- keychain ----------------------------------------------------------------- *)

let test_keychain () =
  let kc = Keychain.create ~seed:5 ~n:7 ~clients:3 in
  check Alcotest.int "n" 7 (Keychain.n kc);
  (* replica and client signing keys are usable *)
  let msg = "m" in
  check Alcotest.bool "replica key" true
    (Signature.verify (Keychain.replica_public kc 3) msg
       (Signature.sign (Keychain.replica_secret kc 3) msg));
  check Alcotest.bool "client key" true
    (Signature.verify (Keychain.client_public kc 1) msg
       (Signature.sign (Keychain.client_secret kc 1) msg))

(* Key values move no simulated number, so neither perf digest would see
   a perturbed derivation; pin them. Client 999 999 checks the lazy
   derivation's jump to its slice of the seed's stream. *)
let test_keychain_golden () =
  let kc = Keychain.create ~seed:42 ~n:4 ~clients:1_000_000 in
  let digest keys = Bytes_util.hex (Sha256.digest (String.concat "" keys)) in
  check Alcotest.string "replica public keys"
    "1bd873656577344fe7d5fcfb976f43aba93cc945eaa3e829e464835351b79d86"
    (digest (List.init 4 (Keychain.replica_public kc)));
  check Alcotest.string "client public keys"
    "1a0738f024c0126da7f99121c7cffec80ae1ea88d05a09c796f6a0d407cabfb5"
    (digest
       (List.map (Keychain.client_public kc) [ 0; 1; 2; 3; 4; 5; 6; 7; 999_999 ]))

let test_keychain_deterministic () =
  let a = Keychain.create ~seed:9 ~n:4 ~clients:2 in
  let b = Keychain.create ~seed:9 ~n:4 ~clients:2 in
  check Alcotest.string "same public keys from same seed"
    (Keychain.replica_public a 2)
    (Keychain.replica_public b 2)

let suite =
  ( "crypto",
    [
      Alcotest.test_case "sha256 FIPS vectors" `Quick test_sha256_vectors;
      Alcotest.test_case "sha256 update_sub splits" `Quick test_sha256_update_sub;
      Alcotest.test_case "sha256 reference kernel vectors" `Quick
        test_sha256_reference_vectors;
      sha_kernel_oracle;
      sha_incremental;
      sha_distinct;
      memo_oracle;
      Alcotest.test_case "sha256 memo: one-bit flips" `Quick
        test_memo_bit_flips;
      Alcotest.test_case "sha256 memo: exact compression counts" `Quick
        test_memo_counts;
      Alcotest.test_case "hmac RFC 4231" `Quick test_hmac_rfc4231;
      hmac_verify_props;
      Alcotest.test_case "signature basics" `Quick test_signature_basic;
      signature_props;
      Alcotest.test_case "keychain" `Quick test_keychain;
      Alcotest.test_case "keychain determinism" `Quick test_keychain_deterministic;
      Alcotest.test_case "keychain golden public keys" `Quick
        test_keychain_golden;
    ] )
