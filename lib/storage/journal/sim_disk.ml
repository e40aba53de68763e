type faults = { torn : float; corrupt : float; lost : float }

let no_faults = { torn = 0.0; corrupt = 0.0; lost = 0.0 }
let uniform_faults p = { torn = p; corrupt = p; lost = p }

type t = {
  mutable area : string list;  (* journal area: stored records, newest first *)
  mutable area_bytes : int;
  mutable slot_seq : int array;  (* -1 = slot empty *)
  mutable slot_blob : string array;
  rng : Rcc_common.Rng.t;
  mutable faults : faults;
  mutable writes : int;
  mutable injected : int;
  mutable log : string list;  (* fault kinds, newest first *)
}

let create ~seed =
  {
    area = [];
    area_bytes = 0;
    slot_seq = [| -1; -1 |];
    slot_blob = [| ""; "" |];
    rng = Rcc_common.Rng.create seed;
    faults = no_faults;
    writes = 0;
    injected = 0;
    log = [];
  }

let set_faults t faults = t.faults <- faults

let inject t kind =
  t.injected <- t.injected + 1;
  t.log <- kind :: t.log

let roll t p = p > 0.0 && Rcc_common.Rng.float t.rng 1.0 < p

(* Flip one byte somewhere in the record — never a no-op flip. *)
let corrupt_record t record =
  let n = String.length record in
  if n = 0 then record
  else begin
    let pos = Rcc_common.Rng.int t.rng n in
    let b = Bytes.of_string record in
    Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0x40));
    Bytes.to_string b
  end

(* Stored records are kept as they are, never copied into one area;
   [journal] concatenates them when recovery reads the disk back. *)
let store t record =
  t.area <- record :: t.area;
  t.area_bytes <- t.area_bytes + String.length record

let append t records =
  t.writes <- t.writes + 1;
  let rec go = function
    | [] -> ()
    | record :: rest ->
        if roll t t.faults.lost then begin
          inject t "lost";
          go rest
        end
        else if roll t t.faults.torn then begin
          (* Power loss mid-flush: a strict prefix of this record lands,
             nothing after it does. *)
          inject t "torn";
          let n = String.length record in
          let keep = if n <= 1 then 0 else Rcc_common.Rng.int t.rng n in
          if keep > 0 then store t (String.sub record 0 keep)
        end
        else begin
          let record =
            if roll t t.faults.corrupt then begin
              inject t "corrupt";
              corrupt_record t record
            end
            else record
          in
          store t record;
          go rest
        end
  in
  go records

let journal t =
  let s = String.concat "" (List.rev t.area) in
  t.area <- [ s ];
  s

let journal_bytes t = t.area_bytes

let write_snapshot t ~seq blob =
  t.writes <- t.writes + 1;
  if roll t t.faults.lost then inject t "lost"
  else begin
    let blob =
      if roll t t.faults.corrupt then begin
        inject t "corrupt";
        corrupt_record t blob
      end
      else blob
    in
    (* Overwrite the older slot, preserving the newest good one. *)
    let victim = if t.slot_seq.(0) <= t.slot_seq.(1) then 0 else 1 in
    t.slot_seq.(victim) <- seq;
    t.slot_blob.(victim) <- blob
  end

let snapshots t =
  let slots =
    List.filter
      (fun (seq, _) -> seq >= 0)
      [ (t.slot_seq.(0), t.slot_blob.(0)); (t.slot_seq.(1), t.slot_blob.(1)) ]
  in
  List.sort (fun (a, _) (b, _) -> compare b a) slots

let writes t = t.writes
let faults_injected t = t.injected
let fault_log t = List.rev t.log
