module Wire = Rcc_common.Wire

type proof = {
  instance : Rcc_common.Ids.instance_id;
  batch_digest : string;
  certificate_digest : string;
}

type t = {
  round : Rcc_common.Ids.round;
  prev_hash : string;
  proofs : proof list;
  primaries : Rcc_common.Ids.replica_id list;
  clients : Rcc_common.Ids.client_id list;
}

let certificate_placeholder = String.make 32 '\000'

let u64 i = Rcc_common.Bytes_util.u64_string (Int64.of_int i)

let genesis_hash ~primaries =
  Rcc_crypto.Sha256.digest_list ("rcc-genesis" :: List.map u64 primaries)

let rec put_digests b proofs off =
  match proofs with
  | [] -> off
  | p :: rest ->
      put_digests b rest
        (Wire.put_int b p.instance off |> Wire.put_raw b p.batch_digest)

(* Certificate digests and primaries are intentionally excluded from the
   block identity: different replicas accept a round with different
   (equally valid) 2f+1 quorums, and replicas racing a primary
   replacement install the new primary set at different rounds of their
   execution stream. Only the agreed content — the ordered batches and
   the clients they serve — must hash identically everywhere. *)
let encode t =
  (* One flat buffer, byte-identical to concatenating the per-field
     strings — blocks are re-encoded at every append for the chain hash,
     so the intermediate strings of the naive concatenation added up. *)
  let len =
    List.fold_left
      (fun acc p -> acc + 8 + String.length p.batch_digest)
      (8 + String.length t.prev_hash)
      t.proofs
    + (8 * List.length t.clients)
  in
  let buf = Bytes.create len in
  let stop =
    Wire.put_int buf t.round 0
    |> Wire.put_raw buf t.prev_hash
    |> put_digests buf t.proofs
    |> Wire.put_ints buf t.clients
  in
  assert (stop = len);
  Bytes.unsafe_to_string buf

let hash t = Rcc_crypto.Sha256.digest (encode t)

(* --- stored record ---------------------------------------------------------

   round, prev hash, proof count; per proof instance and two strings;
   primaries; clients. *)

let max_string = 10_000_000
let max_proofs = 100_000
let max_list = 1_000_000

let proof_size p =
  8 + Wire.string_size p.batch_digest + Wire.string_size p.certificate_digest

let record_size t =
  List.fold_left
    (fun acc p -> acc + proof_size p)
    (8 + Wire.string_size t.prev_hash + 8)
    t.proofs
  + Wire.int_list_size t.primaries
  + Wire.int_list_size t.clients

let rec put_proofs b proofs off =
  match proofs with
  | [] -> off
  | p :: rest ->
      put_proofs b rest
        (Wire.put_int b p.instance off
        |> Wire.put_string b p.batch_digest
        |> Wire.put_string b p.certificate_digest)

let write b t off =
  Wire.put_int b t.round off
  |> Wire.put_string b t.prev_hash
  |> Wire.put_int b (List.length t.proofs)
  |> put_proofs b t.proofs
  |> Wire.put_int_list b t.primaries
  |> Wire.put_int_list b t.clients

let read_proof r =
  let instance = Wire.int r in
  let batch_digest = Wire.string r ~max:max_string in
  let certificate_digest = Wire.string r ~max:max_string in
  { instance; batch_digest; certificate_digest }

let read r =
  let round = Wire.int r in
  let prev_hash = Wire.string r ~max:max_string in
  let proofs =
    List.init (Wire.count r ~max:max_proofs "proof count") (fun _ ->
        read_proof r)
  in
  let primaries = Wire.int_list r ~max:max_list in
  let clients = Wire.int_list r ~max:max_list in
  { round; prev_hash; proofs; primaries; clients }

let pp fmt t =
  Format.fprintf fmt "block[%a prev=%s.. proofs=%d primaries=%d]"
    Rcc_common.Ids.pp_round t.round
    (String.sub (Rcc_common.Bytes_util.hex t.prev_hash) 0 8)
    (List.length t.proofs) (List.length t.primaries)
