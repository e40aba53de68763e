(* Spill entries only: keys outside the direct range. *)
type record = { mutable value : int; mutable version : int }

(* YCSB keys are dense record ids counted up from zero, and [apply] hits
   the store once per transaction — the hottest storage path in the
   simulator. Small non-negative keys are direct-indexed in two unboxed
   int columns (one load, no hashing, no pointer for the major GC to
   follow); anything outside the direct range spills to a Hashtbl so
   arbitrary keys still behave exactly as before. *)
type t = {
  mutable values : int array;
  mutable versions : int array;
      (* [absent] marks a missing key; its [values] cell is then 0, so
         [value] needs no presence check. *)
  spill : (int, record) Hashtbl.t;
  mutable direct_count : int;
  mutable reads : int;
  mutable writes : int;
  (* Speculative undo journal: the prior (value, version) of every key
     written while journaling is enabled, tagged with the round that wrote
     it. Version -1 marks a key that did not exist before the write, so
     undo removes it again. Parallel int arrays, append-only; entries are
     dropped from the front as the commit/checkpoint frontier passes
     ([forget_below]) and replayed from the back on rollback
     ([undo_above]). Off by default — a single branch on the write path. *)
  mutable journal_on : bool;
  mutable j_round : int array;
  mutable j_key : int array;
  mutable j_value : int array;
  mutable j_version : int array;
  mutable j_len : int;
  mutable j_current : int;  (* round tag stamped on new entries *)
}

(* Beyond this the direct columns would no longer be a win; spill instead. *)
let max_direct = 1 lsl 22

let absent = -1

let create () =
  {
    values = Array.make 4096 0;
    versions = Array.make 4096 absent;
    spill = Hashtbl.create 16;
    direct_count = 0;
    reads = 0;
    writes = 0;
    journal_on = false;
    j_round = [||];
    j_key = [||];
    j_value = [||];
    j_version = [||];
    j_len = 0;
    j_current = -1;
  }

let[@inline] is_direct key = key >= 0 && key < max_direct

(* Grow both columns to the first power of two above [key], in one step. *)
let reserve t key =
  let len = Array.length t.versions in
  if key >= len then begin
    let n = ref len in
    while key >= !n do
      n := !n * 2
    done;
    let values = Array.make !n 0 and versions = Array.make !n absent in
    Array.blit t.values 0 values 0 len;
    Array.blit t.versions 0 versions 0 len;
    t.values <- values;
    t.versions <- versions
  end

(* Store [(value, version)] under [key], creating the entry if needed. *)
let set t key value version =
  if is_direct key then begin
    reserve t key;
    if Array.unsafe_get t.versions key = absent then
      t.direct_count <- t.direct_count + 1;
    Array.unsafe_set t.values key value;
    Array.unsafe_set t.versions key version
  end
  else
    match Hashtbl.find_opt t.spill key with
    | Some r ->
        r.value <- value;
        r.version <- version
    | None -> Hashtbl.replace t.spill key { value; version }

let remove_key t key =
  if is_direct key then begin
    if key < Array.length t.versions && Array.unsafe_get t.versions key <> absent
    then begin
      Array.unsafe_set t.values key 0;
      Array.unsafe_set t.versions key absent;
      t.direct_count <- t.direct_count - 1
    end
  end
  else Hashtbl.remove t.spill key

let init_records t ~count =
  if count > 0 then reserve t (min count max_direct - 1);
  for key = 0 to count - 1 do
    set t key (key * 7) 0
  done

(* Direct version of [key], [absent] when missing. *)
let[@inline] direct_version t key =
  if key < Array.length t.versions then Array.unsafe_get t.versions key
  else absent

let read t key =
  t.reads <- t.reads + 1;
  if is_direct key then
    if direct_version t key = absent then None
    else Some (Array.unsafe_get t.values key)
  else
    match Hashtbl.find_opt t.spill key with
    | Some r -> Some r.value
    | None -> None

let value t key =
  t.reads <- t.reads + 1;
  if is_direct key then
    if key < Array.length t.values then Array.unsafe_get t.values key else 0
  else match Hashtbl.find_opt t.spill key with Some r -> r.value | None -> 0

(* --- speculative undo journal ----------------------------------------- *)

let enable_journal t = t.journal_on <- true
let journal_round t round = t.j_current <- round
let journal_length t = t.j_len

let journal_push t key value version =
  if t.j_len = Array.length t.j_round then begin
    let cap = max 256 (2 * t.j_len) in
    let grow a = Array.append a (Array.make (cap - Array.length a) 0) in
    t.j_round <- grow t.j_round;
    t.j_key <- grow t.j_key;
    t.j_value <- grow t.j_value;
    t.j_version <- grow t.j_version
  end;
  let i = t.j_len in
  t.j_round.(i) <- t.j_current;
  t.j_key.(i) <- key;
  t.j_value.(i) <- value;
  t.j_version.(i) <- version;
  t.j_len <- i + 1

(* Keep only journal entries satisfying [keep], preserving append order. *)
let journal_filter t keep =
  let k = ref 0 in
  for i = 0 to t.j_len - 1 do
    if keep t.j_round.(i) then begin
      if !k <> i then begin
        t.j_round.(!k) <- t.j_round.(i);
        t.j_key.(!k) <- t.j_key.(i);
        t.j_value.(!k) <- t.j_value.(i);
        t.j_version.(!k) <- t.j_version.(i)
      end;
      incr k
    end
  done;
  t.j_len <- !k

let undo_above t ~round =
  (* Replay newest-first so the oldest surviving pre-state wins. Entries
     of different rounds may interleave (parallel windows execute rounds
     out of order), but per key they are in execution order — same-key
     access is serialized by the conflict groups — so a selective reverse
     walk restores exactly the state as of the end of round [round - 1]. *)
  for i = t.j_len - 1 downto 0 do
    if t.j_round.(i) >= round then begin
      let key = t.j_key.(i) in
      if t.j_version.(i) < 0 then remove_key t key
      else set t key t.j_value.(i) t.j_version.(i)
    end
  done;
  journal_filter t (fun r -> r < round)

let forget_below t ~round = journal_filter t (fun r -> r >= round)

let journal_clear t = t.j_len <- 0

let write t ~key ~value =
  t.writes <- t.writes + 1;
  if is_direct key then begin
    reserve t key;
    let version = Array.unsafe_get t.versions key in
    if version = absent then begin
      if t.journal_on then journal_push t key 0 absent;
      t.direct_count <- t.direct_count + 1;
      Array.unsafe_set t.versions key 1
    end
    else begin
      if t.journal_on then
        journal_push t key (Array.unsafe_get t.values key) version;
      Array.unsafe_set t.versions key (version + 1)
    end;
    Array.unsafe_set t.values key value
  end
  else
    match Hashtbl.find_opt t.spill key with
    | Some r ->
        if t.journal_on then journal_push t key r.value r.version;
        r.value <- value;
        r.version <- r.version + 1
    | None ->
        if t.journal_on then journal_push t key 0 absent;
        Hashtbl.replace t.spill key { value; version = 1 }

let version t key =
  if is_direct key then max 0 (direct_version t key)
  else match Hashtbl.find_opt t.spill key with Some r -> r.version | None -> 0

let size t = t.direct_count + Hashtbl.length t.spill

let reads_performed t = t.reads
let writes_performed t = t.writes

(* Canonical order — direct keys ascending, then spill keys ascending —
   so two stores holding the same state enumerate identically no matter
   how entries are split between the columns and the spill. *)
let iter t f =
  let values = t.values and versions = t.versions in
  for key = 0 to Array.length versions - 1 do
    let version = Array.unsafe_get versions key in
    if version <> absent then f key (Array.unsafe_get values key) version
  done;
  if Hashtbl.length t.spill > 0 then begin
    let keys = Hashtbl.fold (fun k _ acc -> k :: acc) t.spill [] in
    List.iter
      (fun k ->
        let r = Hashtbl.find t.spill k in
        f k r.value r.version)
      (List.sort compare keys)
  end

let entries t =
  let out = Array.make (size t) (0, 0, 0) in
  let i = ref 0 in
  iter t (fun key value version ->
      out.(!i) <- (key, value, version);
      incr i);
  out

(* Wholesale replacement for snapshot install. The access counters are
   cumulative effort counters, not state, so they survive the install. *)
let install t new_entries =
  Array.fill t.values 0 (Array.length t.values) 0;
  Array.fill t.versions 0 (Array.length t.versions) absent;
  Hashtbl.reset t.spill;
  t.direct_count <- 0;
  (* Journal entries describe pre-install state; none can ever be undone
     into the installed table. *)
  t.j_len <- 0;
  Array.iter (fun (key, value, version) -> set t key value version) new_entries

let state_digest t =
  (* Xor of per-entry digests is order-insensitive: equal states give
     equal digests however their entries are placed. *)
  let acc = Bytes.make 32 '\x00' in
  let entry = Bytes.create 24 in
  iter t (fun key value version ->
      Rcc_common.Bytes_util.put_u64be entry 0 (Int64.of_int key);
      Rcc_common.Bytes_util.put_u64be entry 8 (Int64.of_int value);
      Rcc_common.Bytes_util.put_u64be entry 16 (Int64.of_int version);
      let d = Rcc_crypto.Sha256.digest (Bytes.unsafe_to_string entry) in
      for i = 0 to 31 do
        Bytes.set acc i
          (Char.chr (Char.code (Bytes.get acc i) lxor Char.code d.[i]))
      done);
  Bytes.unsafe_to_string acc
