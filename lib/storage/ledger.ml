type t = {
  genesis : string;
  blocks : Block.t array ref;
  mutable used : int;
  (* Hash of the last appended block, filled on first use. Blocks are
     immutable once appended, so the cache never goes stale — without it
     every append re-hashed the full previous block twice (once for the
     builder fetching [head_hash], once for the chain check). *)
  mutable head : string;
  mutable head_valid : bool;
}

let create ~primaries =
  {
    genesis = Block.genesis_hash ~primaries;
    blocks = ref [||];
    used = 0;
    head = "";
    head_valid = false;
  }

let head_hash t =
  if t.used = 0 then t.genesis
  else if t.head_valid then t.head
  else begin
    let h = Block.hash !(t.blocks).(t.used - 1) in
    t.head <- h;
    t.head_valid <- true;
    h
  end

let next_round t = t.used

let append t (block : Block.t) =
  if block.Block.round <> t.used then
    Error
      (Printf.sprintf "ledger: expected round %d, got %d" t.used block.Block.round)
  else if not (String.equal block.Block.prev_hash (head_hash t)) then
    Error "ledger: prev_hash does not match head"
  else begin
    if t.used = Array.length !(t.blocks) then begin
      let n = max 64 (2 * Array.length !(t.blocks)) in
      let grown = Array.make n block in
      Array.blit !(t.blocks) 0 grown 0 t.used;
      t.blocks := grown
    end;
    !(t.blocks).(t.used) <- block;
    t.used <- t.used + 1;
    t.head_valid <- false;
    Ok ()
  end

let append_exn t block =
  match append t block with Ok () -> () | Error e -> failwith e

let length t = t.used

let get t round = if round >= 0 && round < t.used then Some !(t.blocks).(round) else None

let validate t =
  let rec go i prev =
    if i = t.used then Ok ()
    else
      let b = !(t.blocks).(i) in
      if b.Block.round <> i then Error (Printf.sprintf "bad round at %d" i)
      else if not (String.equal b.Block.prev_hash prev) then
        Error (Printf.sprintf "hash chain broken at round %d" i)
      else go (i + 1) (Block.hash b)
  in
  go 0 t.genesis

let prefix t ~upto =
  let n = min (max upto 0) t.used in
  Array.init n (fun i -> !(t.blocks).(i))

(* Speculative rollback: drop every block at or above [round]. The array
   keeps its capacity (dropped slots are overwritten by re-appends); the
   cached head hashed a now-dropped block, so it is invalidated. *)
let truncate_to t ~round =
  if round >= 0 && round < t.used then begin
    t.used <- round;
    t.head_valid <- false
  end

let install t blocks =
  t.blocks := Array.copy blocks;
  t.used <- Array.length blocks;
  (* The cached head hashed the pre-install chain; recompute lazily from
     the installed blocks or the next append chains off a stale head. *)
  t.head_valid <- false
