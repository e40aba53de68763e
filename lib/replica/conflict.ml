module Batch = Rcc_messages.Batch

type item = {
  round : Rcc_common.Ids.round;
  rank : int;
  acc : Acceptance.t;
}

type group = {
  members : item list;
  txns : int;
  conflict_keys : int;
}

(* --- the key index --------------------------------------------------------

   One entry per distinct key of the window, numbered in first-touch
   order, with the number of batches that write it (W), read it (R) and
   do both (B), and the first batch that touched it. Of the batch pairs
   sharing the key, W(W-1)/2 are write/write and W*R - B are write/read
   (writer/reader pairs, less a batch paired with itself), so

     pairs = W(W-1)/2 + W*R - B

   is the key's share of the pairwise WW + WR + RW overlap count. When it
   is positive some writer relates to every other batch touching the key,
   so they all belong to one group.

   The tables live in per-domain scratch that grows to the largest window
   seen and is reset by bumping [gen]: a slot is live iff its stamp
   equals [gen], so a new window clears nothing. *)

type scratch = {
  mutable gen : int;
  mutable bits : int;  (* key slots = 1 lsl bits, at most half full *)
  mutable stamp : int array;
  mutable key : int array;
  mutable entry : int array;  (* slot -> entry *)
  mutable entries : int;
  mutable writers : int array;  (* entry -> W *)
  mutable readers : int array;  (* entry -> R *)
  mutable both : int array;  (* entry -> B *)
  mutable first : int array;  (* entry -> first batch touching it *)
  mutable last_writer : int array;  (* entry -> latest batch writing it *)
  mutable touch : int array;  (* entry of each (batch, key), batch-major *)
  mutable dbits : int;  (* digest slots = 1 lsl dbits *)
  mutable dstamp : int array;
  mutable dbatch : int array;  (* digest slot -> first batch with it *)
  mutable parent : int array;  (* union-find over batch indices *)
  mutable conflicts : int array;  (* root -> pairs summed over its keys *)
  mutable txns : int array;  (* root -> txns summed over its members *)
}

let scratch =
  Domain.DLS.new_key (fun () ->
      {
        gen = 0;
        bits = 0;
        stamp = [||];
        key = [||];
        entry = [||];
        entries = 0;
        writers = [||];
        readers = [||];
        both = [||];
        first = [||];
        last_writer = [||];
        touch = [||];
        dbits = 0;
        dstamp = [||];
        dbatch = [||];
        parent = [||];
        conflicts = [||];
        txns = [||];
      })

let rec bits_for n b = if 1 lsl b >= n then b else bits_for n (b + 1)

(* Size every table for a window of [batches] batches and [touches]
   (batch, key) pairs. Fresh stamps are 0 and [gen] is at least 1 once
   used, so new slots start dead. *)
let reserve s ~batches ~touches =
  let grow a n =
    if Array.length a >= n then a
    else Array.make (max n (2 * Array.length a)) 0
  in
  let bits = bits_for (2 * touches) 1 in
  if bits > s.bits then begin
    s.bits <- bits;
    s.stamp <- Array.make (1 lsl bits) 0;
    s.key <- Array.make (1 lsl bits) 0;
    s.entry <- Array.make (1 lsl bits) 0
  end;
  s.writers <- grow s.writers touches;
  s.readers <- grow s.readers touches;
  s.both <- grow s.both touches;
  s.first <- grow s.first touches;
  s.last_writer <- grow s.last_writer touches;
  s.touch <- grow s.touch touches;
  let dbits = bits_for (2 * batches) 1 in
  if dbits > s.dbits then begin
    s.dbits <- dbits;
    s.dstamp <- Array.make (1 lsl dbits) 0;
    s.dbatch <- Array.make (1 lsl dbits) 0
  end;
  s.parent <- grow s.parent batches;
  s.conflicts <- grow s.conflicts batches;
  s.txns <- grow s.txns batches

(* Fibonacci hashing: the top [bits] bits of the product. *)
let slot_of k bits = (k * 0x4F1BBCDCBFA53E0B) lsr (Sys.int_size - bits)

(* The entry of [k], created with zero counts and [batch] as its first
   toucher if the window has not seen it yet. *)
let rec find_entry s k batch slot =
  if s.stamp.(slot) <> s.gen then begin
    let e = s.entries in
    s.entries <- e + 1;
    s.stamp.(slot) <- s.gen;
    s.key.(slot) <- k;
    s.entry.(slot) <- e;
    s.writers.(e) <- 0;
    s.readers.(e) <- 0;
    s.both.(e) <- 0;
    s.first.(e) <- batch;
    s.last_writer.(e) <- -1;
    e
  end
  else if s.key.(slot) = k then s.entry.(slot)
  else find_entry s k batch ((slot + 1) land ((1 lsl s.bits) - 1))

let pairs s e =
  let w = s.writers.(e) in
  (w * (w - 1) / 2) + (w * s.readers.(e)) - s.both.(e)

(* Union-find over batch indices, path-halving. *)
let rec find parent i =
  let p = parent.(i) in
  if p = i then i
  else begin
    parent.(i) <- parent.(p);
    find parent parent.(i)
  end

(* Union by smaller root: the canonical representative of a group is its
   first member in (round, rank) order, which is what makes group
   numbering deterministic. *)
let union parent a b =
  let ra = find parent a and rb = find parent b in
  if ra < rb then parent.(rb) <- ra else if rb < ra then parent.(ra) <- rb

(* A re-ordered duplicate of an earlier batch must observe its first
   execution (the duplicate-reply cache), so identical non-null digests
   are serialized into one group even when read-only: join batch [i] to
   the first batch of the window carrying its digest. *)
let rec join_duplicate s items i d slot =
  if s.dstamp.(slot) <> s.gen then begin
    s.dstamp.(slot) <- s.gen;
    s.dbatch.(slot) <- i
  end
  else
    let j = s.dbatch.(slot) in
    if String.equal items.(j).acc.Acceptance.batch.Batch.digest d then
      union s.parent i j
    else
      join_duplicate s items i d ((slot + 1) land ((1 lsl s.dbits) - 1))

let total_keys items =
  Array.fold_left
    (fun t it ->
      let k = Batch.key_sets it.acc.Acceptance.batch in
      t + Array.length k.Batch.rset + Array.length k.Batch.wset)
    0 items

let partition items =
  let n = Array.length items in
  let s = Domain.DLS.get scratch in
  reserve s ~batches:n ~touches:(total_keys items);
  s.gen <- s.gen + 1;
  s.entries <- 0;
  (* Index every key, writes before reads so [last_writer] marks a batch
     that does both. *)
  let t = ref 0 in
  for i = 0 to n - 1 do
    let k = Batch.key_sets items.(i).acc.Acceptance.batch in
    let ws = k.Batch.wset and rs = k.Batch.rset in
    for x = 0 to Array.length ws - 1 do
      let key = ws.(x) in
      let e = find_entry s key i (slot_of key s.bits) in
      s.writers.(e) <- s.writers.(e) + 1;
      s.last_writer.(e) <- i;
      s.touch.(!t) <- e;
      incr t
    done;
    for x = 0 to Array.length rs - 1 do
      let key = rs.(x) in
      let e = find_entry s key i (slot_of key s.bits) in
      s.readers.(e) <- s.readers.(e) + 1;
      if s.last_writer.(e) = i then s.both.(e) <- s.both.(e) + 1;
      s.touch.(!t) <- e;
      incr t
    done
  done;
  (* Join every batch to the first toucher of each conflicting key it
     touches, and duplicates to their first copy. *)
  let parent = s.parent in
  for i = 0 to n - 1 do
    parent.(i) <- i;
    s.conflicts.(i) <- 0;
    s.txns.(i) <- 0
  done;
  let t = ref 0 in
  for i = 0 to n - 1 do
    let b = items.(i).acc.Acceptance.batch in
    let k = Batch.key_sets b in
    for _ = 1 to Array.length k.Batch.wset + Array.length k.Batch.rset do
      let e = s.touch.(!t) in
      incr t;
      if pairs s e > 0 then union parent i s.first.(e)
    done;
    if not (Batch.is_null b) then
      join_duplicate s items i b.Batch.digest
        (Hashtbl.hash b.Batch.digest land ((1 lsl s.dbits) - 1))
  done;
  for e = 0 to s.entries - 1 do
    let p = pairs s e in
    if p > 0 then begin
      let r = find parent s.first.(e) in
      s.conflicts.(r) <- s.conflicts.(r) + p
    end
  done;
  (* Emit groups ordered by first member; members in (round, rank) order —
     items arrive sorted, so index order is replay order. *)
  let members = Array.make n [] in
  for i = n - 1 downto 0 do
    let r = find parent i in
    members.(r) <- items.(i) :: members.(r);
    s.txns.(r) <-
      s.txns.(r) + Batch.txn_count items.(i).acc.Acceptance.batch
  done;
  let groups = ref [] in
  for r = n - 1 downto 0 do
    if parent.(r) = r then
      groups :=
        {
          members = members.(r);
          txns = s.txns.(r);
          conflict_keys = s.conflicts.(r);
        }
        :: !groups
  done;
  !groups
