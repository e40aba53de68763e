module Batch = Rcc_messages.Batch
module Acceptance = Rcc_replica.Acceptance

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
  (* Upper bound on the retained rounds, -1 when none. *)
  mutable hi : int;
}

let create ~z ~capacity =
  let capacity = max 16 capacity in
  (* Every size the ring takes divides [capacity], so rounds the
     full-size ring maps to one slot share a slot at every size. *)
  let rec initial s = if s mod 2 = 0 && s / 2 >= 16 then initial (s / 2) else s in
  let s = initial capacity in
  {
    z;
    capacity;
    rounds = Array.make s (-1);
    batches = Array.make (s * z) vacant;
    bits = Array.make (s * z) 0;
    lists = Array.make (s * z) [];
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
  Array.fill t.lists (i * t.z) t.z []

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
  for i = 0 to s - 1 do
    let r = t.rounds.(i) in
    if r >= 0 then begin
      let j = r mod s' in
      rounds.(j) <- r;
      Array.blit t.batches (i * z) batches (j * z) z;
      Array.blit t.bits (i * z) bits (j * z) z;
      Array.blit t.lists (i * z) lists (j * z) z
    end
  done;
  t.rounds <- rounds;
  t.batches <- batches;
  t.bits <- bits;
  t.lists <- lists

let rec store t ~round accs =
  let i = round mod Array.length t.rounds in
  let held = t.rounds.(i) in
  if held >= 0 && (held - round) mod t.capacity <> 0 then begin
    (* The full-size ring keeps [held] and [round] apart. *)
    grow t;
    store t ~round accs
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
          if bits < 0 then t.lists.(base + x) <- a.cert
        end)
      accs;
    if round > t.hi then t.hi <- round
  end

let find t ~round ~instance =
  if round < 0 || instance < 0 || instance >= t.z then None
  else begin
    let i = round mod Array.length t.rounds in
    let j = (i * t.z) + instance in
    if t.rounds.(i) <> round || t.batches.(j) == vacant then None
    else
      let bits = t.bits.(j) in
      Some (t.batches.(j), if bits >= 0 then unpack bits else t.lists.(j))
  end

let rollback t ~frontier =
  let lo = max frontier 0 in
  if t.hi >= lo then begin
    let s = Array.length t.rounds in
    if t.hi - lo >= s then
      for i = 0 to s - 1 do
        if t.rounds.(i) >= lo then clear_slot t i
      done
    else
      for r = lo to t.hi do
        let i = r mod s in
        if t.rounds.(i) = r then clear_slot t i
      done;
    t.hi <- lo - 1
  end
