type server = {
  engine : Engine.t;
  name : string;
  owner : int;  (* node id for tracing; -1 when unowned *)
  mutable free_at : Engine.time;
  mutable busy_ns : Engine.time;
}

let server engine ?(owner = -1) ~name () =
  { engine; name; owner; free_at = 0; busy_ns = 0 }

let reserve t ~ready ~cost =
  (* Int-specialized: [Stdlib.max] is a polymorphic C comparison and
     this is run per simulated job. *)
  let cost = if cost < 0 then 0 else cost in
  let start = if ready > t.free_at then ready else t.free_at in
  let finish = start + cost in
  t.free_at <- finish;
  t.busy_ns <- t.busy_ns + cost;
  (if cost > 0 then
     match Engine.tracer t.engine with
     | None -> ()
     | Some r ->
         (* The span starts when the server picks the job up, which may
            be later than now (queueing). *)
         Rcc_trace.Recorder.record r
           {
             Rcc_trace.Event.at = start;
             replica = t.owner;
             instance = -1;
             payload = Rcc_trace.Event.Span { track = t.name; dur = cost };
           });
  finish

let submit_ready t ~ready ~cost job =
  let finish = reserve t ~ready ~cost in
  Engine.schedule_at t.engine finish job

let submit t ~cost job = submit_ready t ~ready:(Engine.now t.engine) ~cost job

let utilization t ~since =
  let span = Engine.now t.engine - since in
  if span <= 0 then 0.0
  else
    let frac = float_of_int t.busy_ns /. float_of_int span in
    if frac > 1.0 then 1.0 else frac

type pool = { servers : server array }

let pool engine ?owner ~name ~size () =
  assert (size > 0);
  {
    servers =
      Array.init size (fun i ->
          server engine ?owner ~name:(Printf.sprintf "%s-%d" name i) ());
  }

let earliest t =
  let best = ref 0 in
  for i = 1 to Array.length t.servers - 1 do
    if t.servers.(i).free_at < t.servers.(!best).free_at then best := i
  done;
  t.servers.(!best)

let pool_submit_ready t ~ready ~cost job = submit_ready (earliest t) ~ready ~cost job
let pool_reserve t ~ready ~cost = reserve (earliest t) ~ready ~cost

(* Mean busy fraction across the pool: k servers each busy 100% report
   1.0, matching the single-server convention. *)
let pool_utilization t ~since =
  let sum =
    Array.fold_left (fun acc s -> acc +. utilization s ~since) 0.0 t.servers
  in
  sum /. float_of_int (Array.length t.servers)
