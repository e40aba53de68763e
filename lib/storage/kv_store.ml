type record = { mutable value : int; mutable version : int }

(* YCSB keys are dense record ids counted up from zero, and [apply] hits
   the store once per transaction — the hottest storage path in the
   simulator. Small non-negative keys are direct-indexed in an array
   (one load, no hashing); anything outside the direct range spills to a
   Hashtbl so arbitrary keys still behave exactly as before. *)
type t = {
  mutable direct : record option array;
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

(* Beyond this the direct array would no longer be a win; spill instead. *)
let max_direct = 1 lsl 22

let create () =
  {
    direct = Array.make 4096 None;
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

let grow t key =
  let n = ref (Array.length t.direct) in
  while key >= !n do
    n := !n * 2
  done;
  let direct = Array.make !n None in
  Array.blit t.direct 0 direct 0 (Array.length t.direct);
  t.direct <- direct

let[@inline] find t key =
  if key >= 0 && key < max_direct then
    if key < Array.length t.direct then Array.unsafe_get t.direct key else None
  else Hashtbl.find_opt t.spill key

let set_direct t key r =
  if key >= Array.length t.direct then grow t key;
  (match Array.unsafe_get t.direct key with
  | None -> t.direct_count <- t.direct_count + 1
  | Some _ -> ());
  Array.unsafe_set t.direct key (Some r)

let init_records t ~count =
  for key = 0 to count - 1 do
    set_direct t key { value = key * 7; version = 0 }
  done

let read t key =
  t.reads <- t.reads + 1;
  match find t key with Some r -> Some r.value | None -> None

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

let remove_key t key =
  if key >= 0 && key < max_direct then begin
    if key < Array.length t.direct then
      match Array.unsafe_get t.direct key with
      | Some _ ->
          Array.unsafe_set t.direct key None;
          t.direct_count <- t.direct_count - 1
      | None -> ()
  end
  else Hashtbl.remove t.spill key

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
      else
        match find t key with
        | Some r ->
            r.value <- t.j_value.(i);
            r.version <- t.j_version.(i)
        | None ->
            let r = { value = t.j_value.(i); version = t.j_version.(i) } in
            if key >= 0 && key < max_direct then set_direct t key r
            else Hashtbl.replace t.spill key r
    end
  done;
  journal_filter t (fun r -> r < round)

let forget_below t ~round = journal_filter t (fun r -> r >= round)

let journal_clear t = t.j_len <- 0

let write t ~key ~value =
  t.writes <- t.writes + 1;
  match find t key with
  | Some r ->
      if t.journal_on then journal_push t key r.value r.version;
      r.value <- value;
      r.version <- r.version + 1
  | None ->
      if t.journal_on then journal_push t key 0 (-1);
      let r = { value; version = 1 } in
      if key >= 0 && key < max_direct then set_direct t key r
      else Hashtbl.replace t.spill key r

let version t key =
  match find t key with Some r -> r.version | None -> 0

let size t = t.direct_count + Hashtbl.length t.spill

let reads_performed t = t.reads
let writes_performed t = t.writes

(* Canonical order — direct keys ascending, then spill keys ascending —
   so two stores holding the same state enumerate identically no matter
   how entries are split between the array and the spill. *)
let iter t f =
  Array.iteri
    (fun key r -> match r with Some r -> f key r.value r.version | None -> ())
    t.direct;
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
  Array.fill t.direct 0 (Array.length t.direct) None;
  Hashtbl.reset t.spill;
  t.direct_count <- 0;
  (* Journal entries describe pre-install state; none can ever be undone
     into the installed table. *)
  t.j_len <- 0;
  Array.iter
    (fun (key, value, version) ->
      let r = { value; version } in
      if key >= 0 && key < max_direct then set_direct t key r
      else Hashtbl.replace t.spill key r)
    new_entries

let state_digest t =
  (* Xor of per-entry digests is order-insensitive, so the digest does
     not depend on whether an entry lives in the array or the spill. *)
  let acc = Bytes.make 32 '\x00' in
  let fold key (r : record) =
    let entry =
      Rcc_common.Bytes_util.u64_string (Int64.of_int key)
      ^ Rcc_common.Bytes_util.u64_string (Int64.of_int r.value)
      ^ Rcc_common.Bytes_util.u64_string (Int64.of_int r.version)
    in
    let d = Rcc_crypto.Sha256.digest entry in
    for i = 0 to 31 do
      Bytes.set acc i (Char.chr (Char.code (Bytes.get acc i) lxor Char.code d.[i]))
    done
  in
  Array.iteri
    (fun key r -> match r with Some r -> fold key r | None -> ())
    t.direct;
  Hashtbl.iter fold t.spill;
  Bytes.unsafe_to_string acc
