type faults = { torn : float; corrupt : float; lost : float }

let no_faults = { torn = 0.0; corrupt = 0.0; lost = 0.0 }
let uniform_faults p = { torn = p; corrupt = p; lost = p }

(* [pieces.(i)] belongs at offset [at.(i)] of [frame]; offsets ascend. *)
type record = { frame : string; at : int array; pieces : string array }

let flat frame = { frame; at = [||]; pieces = [||] }

let spliced ~frame ~at pieces =
  let n = Array.length at in
  if n <> Array.length pieces then
    invalid_arg "Sim_disk.spliced: one offset per piece";
  for i = 0 to n - 1 do
    if at.(i) < (if i = 0 then 0 else at.(i - 1)) || at.(i) > String.length frame
    then invalid_arg "Sim_disk.spliced: offsets out of order"
  done;
  { frame; at; pieces }

let length r =
  Array.fold_left
    (fun acc p -> acc + String.length p)
    (String.length r.frame) r.pieces

(* Write the record's bytes at [off]; returns the offset past them. *)
let blit r b off =
  let from = ref 0 and off = ref off in
  let put s pos len =
    Bytes.blit_string s pos b !off len;
    off := !off + len
  in
  Array.iteri
    (fun i a ->
      put r.frame !from (a - !from);
      from := a;
      put r.pieces.(i) 0 (String.length r.pieces.(i)))
    r.at;
  put r.frame !from (String.length r.frame - !from);
  !off

let to_string r =
  if Array.length r.at = 0 then r.frame
  else begin
    let b = Bytes.create (length r) in
    ignore (blit r b 0);
    Bytes.unsafe_to_string b
  end

let empty = flat ""

(* One flush's stored records, in append order, each tagged with the
   round compaction compares. Records [intact, count) include the first
   one a fault touched (and everything after it): compaction never
   passes it. *)
type segment = {
  records : record array;  (* sized for the flush; [count] were stored *)
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
  mutable slot_blob : record array;
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
    slot_blob = [| empty; empty |];
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

(* Flip one byte somewhere in the record — never a no-op flip. The
   drawn position ranges over the whole record, pieces included; the
   faulty bytes are the disk's own copy. *)
let corrupt_record t record =
  let n = length record in
  if n = 0 then record
  else begin
    let pos = Rcc_common.Rng.int t.rng n in
    let b = Bytes.create n in
    ignore (blit record b 0);
    Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0x40));
    flat (Bytes.unsafe_to_string b)
  end

(* Stored records are kept as they were handed over, pieces by
   reference, never copied into one area; [journal] concatenates them
   when recovery reads the disk back. *)
let store t seg ~round_of ~ok record stored_as =
  let i = seg.count in
  if (not ok) && seg.intact > i then seg.intact <- i;
  seg.records.(i) <- stored_as;
  seg.rounds.(i) <- round_of record.frame;
  seg.count <- i + 1;
  t.area_bytes <- t.area_bytes + length stored_as

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
        let n = length record in
        let keep = if n <= 1 then 0 else Rcc_common.Rng.int t.rng n in
        if keep > 0 then
          store t seg ~round_of ~ok:false record
            (flat (String.sub (to_string record) 0 keep))
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
      records = Array.make n empty;
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
      dropped := !dropped + length seg.records.(i);
      seg.records.(i) <- empty;
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
        pos := blit seg.records.(i) b !pos
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
      t.slot_blob.(i) <- empty;
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
  List.map
    (fun (seq, blob) -> (seq, to_string blob))
    (List.sort (fun (a, _) (b, _) -> compare b a) slots)

let writes t = t.writes
let faults_injected t = t.injected
let fault_log t = List.rev t.log

let stored t =
  let area =
    Queue.fold
      (fun acc seg ->
        let acc = ref acc in
        for i = seg.first to seg.count - 1 do
          acc := seg.records.(i) :: !acc
        done;
        !acc)
      [] t.area
  in
  (List.rev area, [ t.slot_blob.(0); t.slot_blob.(1) ])
