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

let validate t ~n =
  let ok_entry (e : Msg.contract_entry) =
    if e.Msg.ce_instance < 0 then Error "contract: negative instance"
    else if e.Msg.ce_round < t.round then Error "contract: round mismatch"
    else if
      List.exists (fun r -> r < 0 || r >= n) e.Msg.ce_cert_replicas
    then Error "contract: certifier out of range"
    else Ok ()
  in
  List.fold_left
    (fun acc e -> match acc with Error _ -> acc | Ok () -> ok_entry e)
    (Ok ()) t.entries

let size t = Msg.contract_entries_size t.entries

(* --- the f + 1 rule ------------------------------------------------------ *)

let window = 1_024

type tally = {
  n : int;
  f : int;
  z : int;
  self : Rcc_common.Ids.replica_id;
  (* Round r of instance x sits in cell ((r mod 2 * window) * z + x):
     counted rounds span fewer than [2 * window], so a cell whose
     [rounds] entry differs holds a stale round and is reset. A cell's
     [digests] maps each responder to its latest digest there ("" for
     none), so it holds one vote per responder by construction. Both
     arrays are allocated on the first counted entry, a cell's row on
     its first vote; fault-free runs count none. *)
  mutable rounds : Rcc_common.Ids.round array;
  mutable digests : string array array;
}

type counted = {
  adopted : (Msg.contract_entry * Rcc_common.Ids.replica_id list) list;
  disputed : int;
}

let tally ~n ~f ~z ~self = { n; f; z; self; rounds = [||]; digests = [||] }

let cell t ~instance ~round =
  if Array.length t.rounds = 0 then begin
    t.rounds <- Array.make (2 * window * t.z) (-1);
    t.digests <- Array.make (2 * window * t.z) [||]
  end;
  let i = ((round mod (2 * window)) * t.z) + instance in
  if t.rounds.(i) <> round then begin
    t.rounds.(i) <- round;
    if Array.length t.digests.(i) = 0 then t.digests.(i) <- Array.make t.n ""
    else Array.fill t.digests.(i) 0 t.n ""
  end;
  t.digests.(i)

let count t ~src ~next c =
  if src = t.self || src < 0 || src >= t.n then { adopted = []; disputed = 0 }
  else begin
    let adopted = ref [] and disputed = ref 0 in
    List.iter
      (fun (e : Msg.contract_entry) ->
        let instance = e.Msg.ce_instance and round = e.Msg.ce_round in
        if
          instance < t.z && round >= 0 && round >= next - window
          && round < next + window
        then begin
          let a = cell t ~instance ~round in
          let digest = e.Msg.ce_batch.Rcc_messages.Batch.digest in
          if Array.exists (fun d -> d <> "" && not (String.equal d digest)) a
          then incr disputed;
          a.(src) <- digest;
          let votes = ref 0 in
          Array.iter (fun d -> if String.equal d digest then incr votes) a;
          if !votes >= t.f + 1 then begin
            let witnesses = ref [] in
            for r = t.n - 1 downto 0 do
              if String.equal a.(r) digest then witnesses := r :: !witnesses
            done;
            adopted := (e, !witnesses) :: !adopted
          end
        end)
      c.entries;
    { adopted = List.rev !adopted; disputed = !disputed }
  end
