(* 4-ary min-heap keyed by (priority, sequence) whose sifts move only
   ints.

   Heap position [i] holds [prio.(i)], [seq.(i)] and [slot.(i)], the
   index of its payload in [data]. A payload is written into [data] once
   by [push] and read (and reset to [dummy]) once by [pop_min_exn]; sifts
   never touch it, so a sift level is three unboxed int writes and no
   [caml_modify]. [slot] is a permutation of [0, capacity): its tail
   [slot.(size) ..] is the stack of vacant payload slots, so [push] takes
   [slot.(size)] and a pop leaves the freed slot at the new [size].
   Unused [data] cells hold the caller-supplied [dummy] — no [Some] box
   per push, and a popped payload is not retained. The 4-ary layout
   keeps a sift-down's child scan inside one cache line of the [prio]
   array. Siftings move the hole instead of swapping. *)

type 'a t = {
  mutable size : int;
  mutable prio : int array;
  mutable seq : int array;
  mutable slot : int array;
  mutable data : 'a array;
  mutable next_seq : int;
  dummy : 'a;
}

let create ?(capacity = 256) ~dummy () =
  let capacity = max capacity 16 in
  {
    size = 0;
    prio = Array.make capacity 0;
    seq = Array.make capacity 0;
    slot = Array.init capacity Fun.id;
    data = Array.make capacity dummy;
    next_seq = 0;
    dummy;
  }

let is_empty t = t.size = 0

let size t = t.size

let grow t =
  let n = Array.length t.prio in
  let n' = n * 2 in
  let prio = Array.make n' 0 in
  let seq = Array.make n' 0 in
  let slot = Array.init n' Fun.id in
  let data = Array.make n' t.dummy in
  Array.blit t.prio 0 prio 0 n;
  Array.blit t.seq 0 seq 0 n;
  Array.blit t.slot 0 slot 0 n;
  Array.blit t.data 0 data 0 n;
  t.prio <- prio;
  t.seq <- seq;
  t.slot <- slot;
  t.data <- data

let push t ~priority v =
  if t.size = Array.length t.prio then grow t;
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  let prio = t.prio and seqs = t.seq and slot = t.slot in
  let i = ref t.size in
  let sl = slot.(!i) in
  t.size <- !i + 1;
  t.data.(sl) <- v;
  (* Bubble the hole up. The fresh element holds the largest sequence
     number ever issued, so on a priority tie the parent stays put —
     only a strictly greater parent priority moves down. *)
  let continue = ref (!i > 0) in
  while !continue do
    let parent = (!i - 1) / 4 in
    if Array.unsafe_get prio parent > priority then begin
      Array.unsafe_set prio !i (Array.unsafe_get prio parent);
      Array.unsafe_set seqs !i (Array.unsafe_get seqs parent);
      Array.unsafe_set slot !i (Array.unsafe_get slot parent);
      i := parent;
      continue := parent > 0
    end
    else continue := false
  done;
  Array.unsafe_set prio !i priority;
  Array.unsafe_set seqs !i seq;
  Array.unsafe_set slot !i sl

(* Drop the root, refill the hole with the last element sifted down, and
   park the root's payload slot at the top of the free stack.
   The (priority, seq) comparison is written out inline on locally bound
   arrays — this loop is the busiest spot of the whole simulator, and
   without flambda a [less t i j] helper stays an outlined call. Indices
   are in [0, n) by construction, so the unsafe accesses are in bounds. *)
let remove_min t =
  let n = t.size - 1 in
  t.size <- n;
  let prio = t.prio and seq = t.seq and slot = t.slot in
  let freed = Array.unsafe_get slot 0 in
  if n > 0 then begin
    let p = Array.unsafe_get prio n
    and s = Array.unsafe_get seq n
    and sl = Array.unsafe_get slot n in
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let c1 = (4 * !i) + 1 in
      if c1 >= n then continue := false
      else begin
        let last = c1 + 3 in
        let last = if last > n - 1 then n - 1 else last in
        (* Smallest (priority, seq) among the children of !i. *)
        let m = ref c1 in
        let mp = ref (Array.unsafe_get prio c1) in
        let ms = ref (Array.unsafe_get seq c1) in
        for c = c1 + 1 to last do
          let cp = Array.unsafe_get prio c in
          if
            cp < !mp
            || (cp = !mp && Array.unsafe_get seq c < !ms)
          then begin
            m := c;
            mp := cp;
            ms := Array.unsafe_get seq c
          end
        done;
        if !mp < p || (!mp = p && !ms < s) then begin
          Array.unsafe_set prio !i !mp;
          Array.unsafe_set seq !i !ms;
          Array.unsafe_set slot !i (Array.unsafe_get slot !m);
          i := !m
        end
        else continue := false
      end
    done;
    Array.unsafe_set prio !i p;
    Array.unsafe_set seq !i s;
    Array.unsafe_set slot !i sl
  end;
  Array.unsafe_set slot n freed

(* Read the root's payload once and release its slot. *)
let[@inline] take_min t =
  let sl = t.slot.(0) in
  let v = t.data.(sl) in
  t.data.(sl) <- t.dummy;
  remove_min t;
  v

let min_priority t =
  if t.size = 0 then invalid_arg "Binary_heap.min_priority: empty heap";
  t.prio.(0)

let pop_min_exn t =
  if t.size = 0 then invalid_arg "Binary_heap.pop_min_exn: empty heap";
  take_min t

let pop t =
  if t.size = 0 then None
  else begin
    let p = t.prio.(0) in
    Some (p, take_min t)
  end

let peek_priority t = if t.size = 0 then None else Some t.prio.(0)

let clear t =
  for i = 0 to t.size - 1 do
    t.data.(t.slot.(i)) <- t.dummy
  done;
  t.size <- 0
