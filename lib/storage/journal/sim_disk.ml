type faults = { torn : float; corrupt : float; lost : float }

let no_faults = { torn = 0.0; corrupt = 0.0; lost = 0.0 }
let uniform_faults p = { torn = p; corrupt = p; lost = p }

(* One flush's stored records, in append order, each tagged with the
   round compaction compares. Records [intact, count) include the first
   one a fault touched (and everything after it): compaction never
   passes it. *)
type segment = {
  records : string array;  (* sized for the flush; [count] were stored *)
  rounds : int array;
  mutable count : int;
  mutable intact : int;
  mutable first : int;  (* records before it were compacted away *)
}

type t = {
  area : segment Queue.t;  (* journal area, oldest flush first *)
  mutable area_bytes : int;
  compaction : bool;
  mutable slot_seq : int array;  (* -1 = slot empty *)
  mutable slot_blob : string array;
  slot_ok : bool array;  (* the slot passed its read-back check *)
  mutable anchor : int;  (* slot index, -1 = none *)
  rng : Rcc_common.Rng.t;
  mutable faults : faults;
  mutable writes : int;
  mutable injected : int;
  mutable log : string list;  (* fault kinds, newest first *)
}

let make ~compaction ~seed =
  {
    area = Queue.create ();
    area_bytes = 0;
    compaction;
    slot_seq = [| -1; -1 |];
    slot_blob = [| ""; "" |];
    slot_ok = [| false; false |];
    anchor = -1;
    rng = Rcc_common.Rng.create seed;
    faults = no_faults;
    writes = 0;
    injected = 0;
    log = [];
  }

let create ~seed = make ~compaction:true ~seed
let create_shadow ~seed = make ~compaction:false ~seed
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
let store t seg ~round_of ~ok record stored_as =
  let i = seg.count in
  if (not ok) && seg.intact > i then seg.intact <- i;
  seg.records.(i) <- stored_as;
  seg.rounds.(i) <- round_of record;
  seg.count <- i + 1;
  t.area_bytes <- t.area_bytes + String.length stored_as

let rec append_records t seg ~round_of = function
  | [] -> ()
  | record :: rest ->
      if roll t t.faults.lost then begin
        inject t "lost";
        append_records t seg ~round_of rest
      end
      else if roll t t.faults.torn then begin
        (* Power loss mid-flush: a strict prefix of this record lands,
           nothing after it does. *)
        inject t "torn";
        let n = String.length record in
        let keep = if n <= 1 then 0 else Rcc_common.Rng.int t.rng n in
        if keep > 0 then
          store t seg ~round_of ~ok:false record (String.sub record 0 keep)
      end
      else if roll t t.faults.corrupt then begin
        inject t "corrupt";
        store t seg ~round_of ~ok:false record (corrupt_record t record);
        append_records t seg ~round_of rest
      end
      else begin
        store t seg ~round_of ~ok:true record record;
        append_records t seg ~round_of rest
      end

let untagged _ = max_int

let append t ?(round_of = untagged) records =
  t.writes <- t.writes + 1;
  let n = List.length records in
  let seg =
    {
      records = Array.make n "";
      rounds = Array.make n 0;
      count = 0;
      intact = n;
      first = 0;
    }
  in
  append_records t seg ~round_of records;
  if seg.count > 0 then Queue.push seg t.area

let compact t ~below =
  let dropped = ref 0 and blocked = ref (not t.compaction) in
  while (not !blocked) && not (Queue.is_empty t.area) do
    let seg = Queue.peek t.area in
    let i = seg.first in
    if i = seg.count then ignore (Queue.pop t.area)
    else if i < seg.intact && seg.rounds.(i) < below then begin
      dropped := !dropped + String.length seg.records.(i);
      seg.records.(i) <- "";
      seg.first <- i + 1
    end
    else blocked := true
  done;
  t.area_bytes <- t.area_bytes - !dropped;
  !dropped

let journal t =
  let b = Bytes.create t.area_bytes and pos = ref 0 in
  Queue.iter
    (fun seg ->
      for i = seg.first to seg.count - 1 do
        let r = seg.records.(i) in
        Bytes.blit_string r 0 b !pos (String.length r);
        pos := !pos + String.length r
      done)
    t.area;
  Bytes.unsafe_to_string b

let journal_bytes t = t.area_bytes

let write_snapshot t ?(check = fun _ -> false) ~seq blob =
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
    (* Never the anchor; without one, the older slot. *)
    let victim =
      if t.anchor >= 0 then 1 - t.anchor
      else if t.slot_seq.(0) <= t.slot_seq.(1) then 0
      else 1
    in
    t.slot_seq.(victim) <- seq;
    t.slot_blob.(victim) <- blob;
    t.slot_ok.(victim) <- check blob
  end

let promote_anchor t ~floor =
  for i = 0 to 1 do
    if
      t.slot_ok.(i)
      && t.slot_seq.(i) <= floor
      && (t.anchor < 0 || t.slot_seq.(i) > t.slot_seq.(t.anchor))
    then t.anchor <- i
  done;
  if t.anchor < 0 then -1 else t.slot_seq.(t.anchor)

let invalidate_above t ~frontier =
  for i = 0 to 1 do
    if t.slot_seq.(i) > frontier then begin
      t.slot_seq.(i) <- -1;
      t.slot_blob.(i) <- "";
      t.slot_ok.(i) <- false;
      if t.anchor = i then t.anchor <- -1
    end
  done

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
