type time = int

let ns x = x
let us x = x * 1_000
let ms x = x * 1_000_000
let s x = x * 1_000_000_000
let of_seconds f = int_of_float (f *. 1e9)
let to_seconds t = float_of_int t *. 1e-9

type t = {
  mutable now : time;
  queue : (unit -> unit) Rcc_common.Binary_heap.t;
  mutable processed : int;
  mutable tracer : Rcc_trace.Recorder.t option;
}

let no_op () = ()

let create () =
  {
    now = 0;
    queue = Rcc_common.Binary_heap.create ~capacity:4096 ~dummy:no_op ();
    processed = 0;
    tracer = None;
  }

let now t = t.now

let set_tracer t r = t.tracer <- Some r
let tracer t = t.tracer
let tracing t = t.tracer <> None

let trace t ~replica ~instance payload =
  match t.tracer with
  | None -> ()
  | Some r ->
      Rcc_trace.Recorder.record r
        { Rcc_trace.Event.at = t.now; replica; instance; payload }

let schedule_at t at f =
  if at < t.now then invalid_arg "Engine.schedule_at: scheduling in the past";
  Rcc_common.Binary_heap.push t.queue ~priority:at f

let schedule_after t delay f =
  schedule_at t (t.now + if delay < 0 then 0 else delay) f

let run t ~until =
  let q = t.queue in
  let continue = ref true in
  while !continue do
    if Rcc_common.Binary_heap.is_empty q then continue := false
    else begin
      let at = Rcc_common.Binary_heap.min_priority q in
      if at > until then continue := false
      else begin
        let f = Rcc_common.Binary_heap.pop_min_exn q in
        t.now <- at;
        t.processed <- t.processed + 1;
        f ()
      end
    end
  done;
  if t.now < until then t.now <- until

let events_processed t = t.processed
