type t = {
  n : int;
  clients : int;
  replica_keys : (Signature.secret_key * Signature.public_key) array;
  client_rng_base : Rcc_common.Rng.t;
      (* the stream position right after the replica keys; client [c]'s
         key occupies draws [4c, 4c+4) from here *)
  client_cache :
    (Rcc_common.Ids.client_id, Signature.secret_key * Signature.public_key)
    Hashtbl.t;
}

let create ~seed ~n ~clients =
  let rng = Rcc_common.Rng.create seed in
  let replica_keys = Array.init n (fun _ -> Signature.keygen rng) in
  (* Client keys are derived on demand: eagerly materializing 1M keygens
     (SHA-256 + HMAC state each) costs hundreds of MB and seconds of
     startup. Each lazily derived key jumps to its slice of the stream,
     so it equals what an eager draw in client order would give. *)
  {
    n;
    clients;
    replica_keys;
    client_rng_base = rng;
    client_cache = Hashtbl.create 256;
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
