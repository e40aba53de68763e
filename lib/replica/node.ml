module Cpu = Rcc_sim.Cpu
module Net = Rcc_sim.Net
module Msg = Rcc_messages.Msg

type t = {
  engine : Rcc_sim.Engine.t;
  net : Msg.t Net.t;
  costs : Rcc_sim.Costs.t;
  self : Rcc_common.Ids.replica_id;
  input : Cpu.pool;
  batchers : Cpu.pool option;
  workers : Cpu.server array;
  exec_server : Cpu.server;
  exec_pool : Cpu.pool option;
  mutable route : src:int -> ready:Rcc_sim.Engine.time -> Msg.t -> unit;
  mutable halted : bool;
}

let input_threads = 3
let output_threads = 3
let batch_threads = 2

let create ~engine ~net ~costs ~self ~z ~has_batchers ?exec_pool_size () =
  let name kind = Printf.sprintf "r%d-%s" self kind in
  let t =
    {
      engine;
      net;
      costs;
      self;
      input = Cpu.pool engine ~owner:self ~name:(name "input") ~size:input_threads ();
      batchers =
        (if has_batchers then
           Some (Cpu.pool engine ~owner:self ~name:(name "batch") ~size:batch_threads ())
         else None);
      workers =
        Array.init z (fun i ->
            Cpu.server engine ~owner:self
              ~name:(Printf.sprintf "r%d-worker%d" self i)
              ());
      exec_server = Cpu.server engine ~owner:self ~name:(name "exec") ();
      exec_pool =
        (match exec_pool_size with
        | Some size when size > 0 ->
            Some (Cpu.pool engine ~owner:self ~name:(name "exec-pool") ~size ())
        | Some _ | None -> None);
      route = (fun ~src:_ ~ready:_ _ -> ());
      halted = false;
    }
  in
  Net.register net self (fun ~src ~size:_ msg ->
      if t.halted then () else
      (* Input-thread stage fused into the arrival event: the parse cost
         queues virtually and the route schedules downstream work to start
         no earlier than [ready]. *)
      let ready =
        Cpu.pool_reserve t.input
          ~ready:(Rcc_sim.Engine.now engine)
          ~cost:costs.Rcc_sim.Costs.input_parse
      in
      t.route ~src ~ready msg);
  t

let engine t = t.engine
let costs t = t.costs
let self t = t.self
let worker t i = t.workers.(i)
let exec_server t = t.exec_server
let exec_pool t = t.exec_pool
let batchers t = t.batchers
let set_route t route = t.route <- route
let halt t = t.halted <- true
let halted t = t.halted

let auth_cost t ~sign ndest =
  let c = t.costs in
  let per_dest =
    c.Rcc_sim.Costs.send_per_dest
    + if sign then 0 else c.Rcc_sim.Costs.mac_gen
  in
  (* One signature covers all copies of a broadcast; MACs are per pair. *)
  (ndest * per_dest) + if sign then c.Rcc_sim.Costs.sign else 0

let sender t ~worker =
  let send ?(sign = false) ?size ~dst msg =
    Cpu.submit worker ~cost:(auth_cost t ~sign 1) (fun () ->
        if not t.halted then begin
          let size = match size with Some s -> s | None -> Msg.size msg in
          Net.send t.net ~src:t.self ~dst ~size msg
        end)
  in
  let broadcast ?(sign = false) ?size ?(exclude = fun _ -> false) ~n msg =
    let dests = ref [] in
    for dst = n - 1 downto 0 do
      if dst <> t.self && not (exclude dst) then dests := dst :: !dests
    done;
    let dests = !dests in
    Cpu.submit worker ~cost:(auth_cost t ~sign (List.length dests)) (fun () ->
        if not t.halted then begin
          let size = match size with Some s -> s | None -> Msg.size msg in
          List.iter (fun dst -> Net.send t.net ~src:t.self ~dst ~size msg) dests
        end)
  in
  (send, broadcast)

let send_direct t ~dst msg =
  if not t.halted then Net.send t.net ~src:t.self ~dst ~size:(Msg.size msg) msg
