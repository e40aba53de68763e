module Wire = Rcc_common.Wire

let magic = "RCCL1\n"
let max_primaries = 1_000_000

let save ledger ~primaries =
  let size = ref (String.length magic + Wire.int_list_size primaries + 8) in
  Ledger.iter ledger (fun block -> size := !size + Block.record_size block);
  let buf = Bytes.create !size in
  let off =
    ref
      (Wire.put_raw buf magic 0
      |> Wire.put_int_list buf primaries
      |> Wire.put_int buf (Ledger.length ledger))
  in
  Ledger.iter ledger (fun block -> off := Block.write buf block !off);
  assert (!off = !size);
  Bytes.unsafe_to_string buf

let read r =
  Wire.magic r magic;
  let ledger = Ledger.create ~primaries:(Wire.int_list r ~max:max_primaries) in
  for _ = 1 to Wire.count r ~max:max_int "block count" do
    match Ledger.append ledger (Block.read r) with
    | Ok () -> ()
    | Error e -> raise (Wire.Malformed e)
  done;
  ledger

(* Appends already checked the chain, but re-validate end to end so
   corruption inside a block body is also caught. *)
let load s =
  Result.bind (Wire.decode read s) (fun ledger ->
      Result.map (fun () -> ledger) (Ledger.validate ledger))

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
