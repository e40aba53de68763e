module Bytes_util = Rcc_common.Bytes_util

let magic = "RCCL1\n"

(* --- writer ----------------------------------------------------------- *)

(* Every writer stores at [off] and returns the offset past what it
   wrote; callers size the buffer exactly first. *)

let put_int b off v =
  Bytes.set_int64_be b off (Int64.of_int v);
  off + 8

let put_string b off s =
  let n = String.length s in
  let off = put_int b off n in
  Bytes.blit_string s 0 b off n;
  off + n

(* Lists are walked by top-level recursion, not [List.fold_left] with a
   closure over the buffer, so writing a block allocates nothing. *)
let rec put_ints b off = function
  | [] -> off
  | v :: rest -> put_ints b (put_int b off v) rest

let put_int_list b off l = put_ints b (put_int b off (List.length l)) l

let rec put_proofs b off = function
  | [] -> off
  | (p : Block.proof) :: rest ->
      let off = put_int b off p.Block.instance in
      let off = put_string b off p.Block.batch_digest in
      put_proofs b (put_string b off p.Block.certificate_digest) rest

let int_list_size l = 8 * (1 + List.length l)

(* round, prev hash, proof count; per proof instance and two strings;
   primaries; clients. *)
let block_size (b : Block.t) =
  List.fold_left
    (fun acc (p : Block.proof) ->
      acc + 8
      + (8 + String.length p.Block.batch_digest)
      + (8 + String.length p.Block.certificate_digest))
    (8 + (8 + String.length b.Block.prev_hash) + 8)
    b.Block.proofs
  + int_list_size b.Block.primaries
  + int_list_size b.Block.clients

let write_block (b : Block.t) buf ~off =
  let off = put_int buf off b.Block.round in
  let off = put_string buf off b.Block.prev_hash in
  let off = put_int buf off (List.length b.Block.proofs) in
  let off = put_proofs buf off b.Block.proofs in
  let off = put_int_list buf off b.Block.primaries in
  put_int_list buf off b.Block.clients

let save ledger ~primaries =
  let size = ref (String.length magic + int_list_size primaries + 8) in
  Ledger.iter ledger (fun block -> size := !size + block_size block);
  let buf = Bytes.create !size in
  Bytes.blit_string magic 0 buf 0 (String.length magic);
  let off = put_int_list buf (String.length magic) primaries in
  let off = ref (put_int buf off (Ledger.length ledger)) in
  Ledger.iter ledger (fun block -> off := write_block block buf ~off:!off);
  assert (!off = !size);
  Bytes.unsafe_to_string buf

(* --- reader ------------------------------------------------------------ *)

exception Malformed of string

type reader = { buf : string; mutable pos : int }

let need r n =
  if r.pos + n > String.length r.buf then raise (Malformed "ledger file truncated")

let r_int r =
  need r 8;
  let v = Int64.to_int (Bytes_util.get_u64be r.buf r.pos) in
  r.pos <- r.pos + 8;
  v

let r_string r =
  let len = r_int r in
  if len < 0 || len > 10_000_000 then raise (Malformed "bad string length");
  need r len;
  let s = String.sub r.buf r.pos len in
  r.pos <- r.pos + len;
  s

let r_int_list r =
  let len = r_int r in
  if len < 0 || len > 1_000_000 then raise (Malformed "bad list length");
  List.init len (fun _ -> r_int r)

let r_block r =
  let round = r_int r in
  let prev_hash = r_string r in
  let nproofs = r_int r in
  if nproofs < 0 || nproofs > 100_000 then raise (Malformed "bad proof count");
  let proofs =
    List.init nproofs (fun _ ->
        let instance = r_int r in
        let batch_digest = r_string r in
        let certificate_digest = r_string r in
        { Block.instance; batch_digest; certificate_digest })
  in
  let primaries = r_int_list r in
  let clients = r_int_list r in
  { Block.round; prev_hash; proofs; primaries; clients }

(* Exposed for Snapshot, which embeds a block chain in its own framing:
   reads one block record starting at [pos], returns it with the next
   position. *)
let read_block s ~pos =
  let r = { buf = s; pos } in
  let b = r_block r in
  (b, r.pos)

let load s =
  match
    (let mlen = String.length magic in
     if String.length s < mlen || not (String.equal (String.sub s 0 mlen) magic)
     then raise (Malformed "bad magic");
     let r = { buf = s; pos = mlen } in
     let primaries = r_int_list r in
     let count = r_int r in
     if count < 0 then raise (Malformed "negative block count");
     let ledger = Ledger.create ~primaries in
     for _ = 1 to count do
       match Ledger.append ledger (r_block r) with
       | Ok () -> ()
       | Error e -> raise (Malformed e)
     done;
     if r.pos <> String.length s then raise (Malformed "trailing bytes");
     ledger)
  with
  | ledger -> (
      (* Appends already checked the chain, but re-validate end to end so
         corruption inside a block body is also caught. *)
      match Ledger.validate ledger with
      | Ok () -> Ok ledger
      | Error e -> Error e)
  | exception Malformed e -> Error e

(* --- files ----------------------------------------------------------------- *)

let save_file ledger ~primaries ~path =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (save ledger ~primaries))

let load_file ~path =
  match open_in_bin path with
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () ->
          let len = in_channel_length ic in
          load (really_input_string ic len))
  | exception Sys_error e -> Error e
