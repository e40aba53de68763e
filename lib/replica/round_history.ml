module Batch = Rcc_messages.Batch

(* Marks an empty (slot, instance) cell; never a stored batch, so a
   physical comparison tells the two apart. *)
let vacant = Batch.null ~round:(-1)

type t = {
  z : int;
  capacity : int;
  (* Per round slot: the round it holds, -1 when empty. *)
  mutable rounds : int array;
  (* Per (slot, instance) cell, at [slot * z + instance]. *)
  mutable batches : Batch.t array;
  (* The cert as a member bitmap when it is strictly ascending with
     members below 62 (every Quorum.to_list cert at n <= 62); otherwise
     -1 and the list itself in [lists] (Zyzzyva's [primary; self]). *)
  mutable bits : int array;
  mutable lists : int list array;
  (* The history digest and speculative flag ('\001') per cell; empty
     until the first speculative acceptance, and read as "" and false
     while empty. *)
  mutable digests : string array;
  mutable spec : Bytes.t;
  (* Upper bound on the retained rounds, -1 when none. *)
  mutable hi : int;
}

let create ~z ~capacity =
  let capacity = max 16 capacity in
  (* Every size the ring takes divides [capacity] or is a multiple of
     it, so rounds the full-size ring maps to one slot share a slot at
     every size below it. *)
  let rec initial s = if s mod 2 = 0 && s / 2 >= 16 then initial (s / 2) else s in
  let s = initial capacity in
  {
    z;
    capacity;
    rounds = Array.make s (-1);
    batches = Array.make (s * z) vacant;
    bits = Array.make (s * z) 0;
    lists = Array.make (s * z) [];
    digests = [||];
    spec = Bytes.empty;
    hi = -1;
  }

let slots t = Array.length t.rounds

let pack cert =
  let rec go prev bits = function
    | [] -> bits
    | m :: rest -> if m > prev && m < 62 then go m (bits lor (1 lsl m)) rest else -1
  in
  go (-1) 0 cert

let unpack bits =
  let rec go m acc =
    if m < 0 then acc
    else go (m - 1) (if bits land (1 lsl m) <> 0 then m :: acc else acc)
  in
  go 61 []

let clear_slot t i =
  t.rounds.(i) <- -1;
  Array.fill t.batches (i * t.z) t.z vacant;
  Array.fill t.lists (i * t.z) t.z [];
  if Array.length t.digests > 0 then Array.fill t.digests (i * t.z) t.z ""

(* Double the ring, re-placing each retained round at [round mod] the
   new size. Retained rounds are distinct modulo the old size, hence
   modulo the new one. *)
let grow t =
  let s = Array.length t.rounds and z = t.z in
  let s' = 2 * s in
  let rounds = Array.make s' (-1) in
  let batches = Array.make (s' * z) vacant in
  let bits = Array.make (s' * z) 0 in
  let lists = Array.make (s' * z) [] in
  let speculated = Array.length t.digests > 0 in
  let digests = if speculated then Array.make (s' * z) "" else [||] in
  let spec = if speculated then Bytes.make (s' * z) '\000' else Bytes.empty in
  for i = 0 to s - 1 do
    let r = t.rounds.(i) in
    if r >= 0 then begin
      let j = r mod s' in
      rounds.(j) <- r;
      Array.blit t.batches (i * z) batches (j * z) z;
      Array.blit t.bits (i * z) bits (j * z) z;
      Array.blit t.lists (i * z) lists (j * z) z;
      if speculated then begin
        Array.blit t.digests (i * z) digests (j * z) z;
        Bytes.blit t.spec (i * z) spec (j * z) z
      end
    end
  done;
  t.rounds <- rounds;
  t.batches <- batches;
  t.bits <- bits;
  t.lists <- lists;
  t.digests <- digests;
  t.spec <- spec

let rec store t ~round ~floor accs =
  let i = round mod Array.length t.rounds in
  let held = t.rounds.(i) in
  if
    held >= 0
    && ((held - round) mod t.capacity <> 0 || (held >= floor && held <> round))
  then begin
    (* The full-size ring keeps [held] and [round] apart, or [held] may
       still be rolled back. *)
    grow t;
    store t ~round ~floor accs
  end
  else begin
    clear_slot t i;
    t.rounds.(i) <- round;
    let base = i * t.z in
    Array.iter
      (fun (a : Acceptance.t) ->
        let x = a.instance in
        if x >= 0 && x < t.z && t.batches.(base + x) == vacant then begin
          t.batches.(base + x) <- a.batch;
          let bits = pack a.cert in
          t.bits.(base + x) <- bits;
          if bits < 0 then t.lists.(base + x) <- a.cert;
          if
            Array.length t.digests = 0 && (a.speculative || a.history <> "")
          then begin
            t.digests <- Array.make (Array.length t.batches) "";
            t.spec <- Bytes.make (Array.length t.batches) '\000'
          end;
          if Array.length t.digests > 0 then begin
            t.digests.(base + x) <- a.history;
            Bytes.set t.spec (base + x) (if a.speculative then '\001' else '\000')
          end
        end)
      accs;
    if round > t.hi then t.hi <- round
  end

(* The acceptance in cell [j] of slot [i], which holds a batch. *)
let cell t i j =
  let bits = t.bits.(j) in
  let speculated = Array.length t.digests > 0 in
  {
    Acceptance.instance = j - (i * t.z);
    round = t.rounds.(i);
    batch = t.batches.(j);
    cert = (if bits >= 0 then unpack bits else t.lists.(j));
    speculative = speculated && Bytes.get t.spec j = '\001';
    history = (if speculated then t.digests.(j) else "");
  }

let find t ~round ~instance =
  if round < 0 || instance < 0 || instance >= t.z then None
  else begin
    let i = round mod Array.length t.rounds in
    let j = (i * t.z) + instance in
    if t.rounds.(i) <> round || t.batches.(j) == vacant then None
    else Some (cell t i j)
  end

let rollback t ~frontier =
  let lo = max frontier 0 in
  let dropped = ref [] in
  let take i =
    for j = (i * t.z) + t.z - 1 downto i * t.z do
      if t.batches.(j) != vacant then dropped := cell t i j :: !dropped
    done;
    clear_slot t i
  in
  if t.hi >= lo then begin
    let s = Array.length t.rounds in
    if t.hi - lo >= s then
      for i = 0 to s - 1 do
        if t.rounds.(i) >= lo then take i
      done
    else
      for r = lo to t.hi do
        let i = r mod s in
        if t.rounds.(i) = r then take i
      done;
    t.hi <- lo - 1
  end;
  !dropped
