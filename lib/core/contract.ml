module Msg = Rcc_messages.Msg

type t = {
  round : Rcc_common.Ids.round;
  entries : Rcc_messages.Msg.contract_entry list;
}

let build ~round ~accepted ~z =
  let entries = ref [] in
  for x = z - 1 downto 0 do
    match accepted x with
    | Some (batch, cert) ->
        entries :=
          {
            Msg.ce_instance = x;
            ce_round = round;
            ce_batch = batch;
            ce_cert_replicas = cert;
          }
          :: !entries
    | None -> ()
  done;
  { round; entries = !entries }

let to_msg t = Msg.Contract { round = t.round; entries = t.entries }

let of_msg = function
  | Msg.Contract { round; entries } -> Some { round; entries }
  | _ -> None

let validate t ~n ~min_cert =
  (* A certifier named twice proves one replica: count distinct ones. *)
  let certifiers = Rcc_common.Bitset.create n in
  let ok_entry (e : Msg.contract_entry) =
    if e.Msg.ce_instance < 0 then Error "contract: negative instance"
    else if e.Msg.ce_round < t.round then Error "contract: round mismatch"
    else if
      List.exists (fun r -> r < 0 || r >= n) e.Msg.ce_cert_replicas
    then Error "contract: certifier out of range"
    else begin
      Rcc_common.Bitset.clear certifiers;
      List.iter
        (fun r -> ignore (Rcc_common.Bitset.add certifiers r))
        e.Msg.ce_cert_replicas;
      if Rcc_common.Bitset.count certifiers < min_cert then
        Error "contract: insufficient accept proof"
      else Ok ()
    end
  in
  List.fold_left
    (fun acc e -> match acc with Error _ -> acc | Ok () -> ok_entry e)
    (Ok ()) t.entries

let size t = Msg.contract_entries_size t.entries
