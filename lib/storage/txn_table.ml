type entry = {
  round : Rcc_common.Ids.round;
  instance : Rcc_common.Ids.instance_id;
  client : Rcc_common.Ids.client_id;
  batch_digest : string;
  response_digest : string;
  txn_count : int;
}

(* One row per (round, instance) cell, at [round * z + instance], in
   four columns that double with the highest round recorded. *)
type t = {
  z : int;
  mutable clients : int array;
  mutable counts : int array;  (* txn count; -1 = no row *)
  mutable batch_digests : string array;
  mutable response_digests : string array;
  mutable hi : int;  (* upper bound on the rounds with rows, -1 if none *)
  mutable rounds : int;
  mutable txns : int;
}

let create ~z =
  if z < 1 then invalid_arg "Txn_table.create: z < 1";
  let cells = 16 * z in
  {
    z;
    clients = Array.make cells 0;
    counts = Array.make cells (-1);
    batch_digests = Array.make cells "";
    response_digests = Array.make cells "";
    hi = -1;
    rounds = 0;
    txns = 0;
  }

let extend a len fill =
  let b = Array.make len fill in
  Array.blit a 0 b 0 (Array.length a);
  b

let rec reserve t cells =
  let len = Array.length t.counts in
  if cells > len then begin
    t.clients <- extend t.clients (2 * len) 0;
    t.counts <- extend t.counts (2 * len) (-1);
    t.batch_digests <- extend t.batch_digests (2 * len) "";
    t.response_digests <- extend t.response_digests (2 * len) "";
    reserve t cells
  end

let has_rows t round =
  let base = round * t.z in
  let rec go x = x < t.z && (t.counts.(base + x) >= 0 || go (x + 1)) in
  round <= t.hi && go 0

let record t e =
  if e.round < 0 || e.instance < 0 || e.instance >= t.z then
    invalid_arg "Txn_table.record: round or instance out of range";
  reserve t ((e.round + 1) * t.z);
  let j = (e.round * t.z) + e.instance in
  let old = t.counts.(j) in
  if old >= 0 then t.txns <- t.txns - old
  else if not (has_rows t e.round) then t.rounds <- t.rounds + 1;
  t.clients.(j) <- e.client;
  t.counts.(j) <- e.txn_count;
  t.batch_digests.(j) <- e.batch_digest;
  t.response_digests.(j) <- e.response_digest;
  t.txns <- t.txns + e.txn_count;
  if e.round > t.hi then t.hi <- e.round

let find t ~round =
  let rec go x acc =
    if x < 0 then acc
    else
      let j = (round * t.z) + x in
      let acc =
        if t.counts.(j) < 0 then acc
        else
          {
            round;
            instance = x;
            client = t.clients.(j);
            batch_digest = t.batch_digests.(j);
            response_digest = t.response_digests.(j);
            txn_count = t.counts.(j);
          }
          :: acc
      in
      go (x - 1) acc
  in
  if round < 0 || round > t.hi then [] else go (t.z - 1) []

(* Speculative rollback: drop every row at or above [round], returning
   how many (rounds, txns) were dropped so the execute stage can adjust
   its counters. Visits only the rounds from [round] up. *)
let remove_from t ~round =
  let lo = max round 0 in
  let removed_rounds = ref 0 and removed_txns = ref 0 in
  for r = lo to t.hi do
    if has_rows t r then incr removed_rounds;
    for j = r * t.z to ((r + 1) * t.z) - 1 do
      if t.counts.(j) >= 0 then begin
        removed_txns := !removed_txns + t.counts.(j);
        t.counts.(j) <- -1;
        t.batch_digests.(j) <- "";
        t.response_digests.(j) <- ""
      end
    done
  done;
  if t.hi >= lo then t.hi <- lo - 1;
  t.rounds <- t.rounds - !removed_rounds;
  t.txns <- t.txns - !removed_txns;
  (!removed_rounds, !removed_txns)

let total_txns t = t.txns
let rounds t = t.rounds
