type t = {
  n : int;
  clients : int;
  replica_keys : (Signature.secret_key * Signature.public_key) array;
  client_rng_base : Rcc_common.Rng.t;
      (* frozen at the stream position where eager client keygen used to
         start; client [c]'s key occupies draws [4c, 4c+4) from here *)
  client_cache :
    (Rcc_common.Ids.client_id, Signature.secret_key * Signature.public_key)
    Hashtbl.t;
  mac_keys : Cmac.key array; (* upper-triangular pair index *)
}

(* Index of the unordered pair {i, j}, i <> j, in a triangular array. *)
let pair_index n i j =
  let i, j = if i < j then (i, j) else (j, i) in
  assert (i <> j && j < n);
  (i * n) - (i * (i + 1) / 2) + (j - i - 1)

let create ~seed ~n ~clients =
  let rng = Rcc_common.Rng.create seed in
  let replica_keys = Array.init n (fun _ -> Signature.keygen rng) in
  (* Client keys are derived on demand: eagerly materializing 1M keygens
     (SHA-256 + HMAC state each) costs hundreds of MB and seconds of
     startup. Freeze the stream position they would have consumed and
     skip the main generator past it so the MAC keys below — and every
     lazily derived client key — come out bit-identical to the old eager
     draw order. *)
  let client_rng_base = Rcc_common.Rng.copy rng in
  Rcc_common.Rng.skip rng (4 * clients);
  let npairs = n * (n - 1) / 2 in
  let mac_keys =
    Array.init npairs (fun _ ->
        let raw =
          Rcc_common.Bytes_util.u64_string (Rcc_common.Rng.next_int64 rng)
          ^ Rcc_common.Bytes_util.u64_string (Rcc_common.Rng.next_int64 rng)
        in
        Cmac.of_aes_key raw)
  in
  {
    n;
    clients;
    replica_keys;
    client_rng_base;
    client_cache = Hashtbl.create 256;
    mac_keys;
  }

let n t = t.n

let client_key t c =
  match Hashtbl.find_opt t.client_cache c with
  | Some kp -> kp
  | None ->
      if c < 0 || c >= t.clients then
        invalid_arg "Keychain.client_key: client out of range";
      let rng = Rcc_common.Rng.copy t.client_rng_base in
      Rcc_common.Rng.skip rng (4 * c);
      let kp = Signature.keygen rng in
      Hashtbl.replace t.client_cache c kp;
      kp

let replica_secret t r = fst t.replica_keys.(r)
let replica_public t r = snd t.replica_keys.(r)
let client_secret t c = fst (client_key t c)
let client_public t c = snd (client_key t c)
(* The CMAC key replicas [i] and [j] share; symmetric. *)
let mac_key t i j = t.mac_keys.(pair_index t.n i j)
let mac t ~src ~dst msg = Cmac.mac (mac_key t src dst) msg
let mac_verify t ~src ~dst msg ~tag = Cmac.verify (mac_key t src dst) msg ~tag
