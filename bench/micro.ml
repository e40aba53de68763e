(* Substrate microbenchmarks (Bechamel): the crypto primitives whose
   relative costs drive the protocol cost model, the Zipfian generator,
   and the simulation engine's event loop. *)

open Bechamel
open Toolkit

let payload = String.init 5400 (fun i -> Char.chr (i land 0xff))
let small = String.init 250 (fun i -> Char.chr ((i * 7) land 0xff))

let signing_key, public_key =
  Rcc_crypto.Signature.keygen (Rcc_common.Rng.create 99)

let signature = Rcc_crypto.Signature.sign signing_key small

let zipf = Rcc_workload.Zipf.create ~n:500_000 ~theta:0.9
let zipf_rng = Rcc_common.Rng.create 5

let engine_events () =
  let engine = Rcc_sim.Engine.create () in
  let rec tick i =
    if i < 1000 then
      Rcc_sim.Engine.schedule_after engine 10 (fun () -> tick (i + 1))
  in
  tick 0;
  Rcc_sim.Engine.run engine ~until:max_int

(* One op = a 15-destination broadcast, drained to a bounded horizon so
   [now] never parks at the end of time. The rules are no-ops: the 0-rule
   case exercises the compiled fast path, the 3-rule case the rule scan. *)
let net_broadcast ~rules =
  let engine = Rcc_sim.Engine.create () in
  let rng = Rcc_common.Rng.create 7 in
  let net =
    Rcc_sim.Net.create engine ~nodes:16 ~latency:(Rcc_sim.Engine.us 50)
      ~jitter:0 ~gbps:10.0 ~rng ()
  in
  for i = 0 to 15 do
    Rcc_sim.Net.register net i (fun ~src:_ ~size:_ _ -> ())
  done;
  if rules then begin
    ignore (Rcc_sim.Net.add_drop_rule net (fun ~src:_ ~dst:_ _ -> false));
    ignore (Rcc_sim.Net.add_delay_rule net (fun ~src:_ ~dst:_ -> 0));
    ignore (Rcc_sim.Net.add_dup_rule net (fun ~src:_ ~dst:_ _ -> 0))
  end;
  fun () ->
    for dst = 1 to 15 do
      Rcc_sim.Net.send net ~src:0 ~dst ~size:5400 ()
    done;
    Rcc_sim.Engine.run engine
      ~until:(Rcc_sim.Engine.now engine + Rcc_sim.Engine.ms 10)

let codec_msg =
  let secret, _ = Rcc_crypto.Signature.keygen (Rcc_common.Rng.create 3) in
  let txns =
    Array.init 100 (fun i -> Rcc_workload.Txn.{ key = i; op = Write (i * 31) })
  in
  let batch = Rcc_messages.Batch.create ~id:1 ~client:0 ~txns ~secret in
  Rcc_messages.Msg.Pre_prepare { instance = 0; view = 0; seq = 9; batch }

let codec_roundtrip () =
  let wire = Rcc_messages.Codec.encode codec_msg in
  match Rcc_messages.Codec.decode wire with
  | Ok _ -> ()
  | Error e -> failwith e

let tests =
  [
    Test.make ~name:"sha256-5400B"
      (Staged.stage (fun () -> ignore (Rcc_crypto.Sha256.digest payload)));
    Test.make ~name:"sha256-250B"
      (Staged.stage (fun () -> ignore (Rcc_crypto.Sha256.digest small)));
    Test.make ~name:"hmac-sha256-250B"
      (Staged.stage (fun () -> ignore (Rcc_crypto.Hmac.mac ~key:"k" small)));
    Test.make ~name:"sign-250B"
      (Staged.stage (fun () ->
           ignore (Rcc_crypto.Signature.sign signing_key small)));
    Test.make ~name:"verify-250B"
      (Staged.stage (fun () ->
           ignore (Rcc_crypto.Signature.verify public_key small signature)));
    Test.make ~name:"zipf-draw"
      (Staged.stage (fun () -> ignore (Rcc_workload.Zipf.next zipf zipf_rng)));
    Test.make ~name:"engine-1000-events"
      (Staged.stage engine_events);
    Test.make ~name:"net-broadcast-0rules"
      (Staged.stage (net_broadcast ~rules:false));
    Test.make ~name:"net-broadcast-3rules"
      (Staged.stage (net_broadcast ~rules:true));
    Test.make ~name:"codec-roundtrip-100txn"
      (Staged.stage codec_roundtrip);
  ]

let run _profile =
  Printf.printf "\n## Substrate microbenchmarks (Bechamel)\n\n";
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instance = Instance.monotonic_clock in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~stabilize:true ()
  in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg [ instance ] test in
      let analyzed = Analyze.all ols instance results in
      Hashtbl.iter
        (fun name ols_result ->
          match Analyze.OLS.estimates ols_result with
          | Some [ est ] -> Printf.printf "%-24s %12.0f ns/op\n" name est
          | Some _ | None -> Printf.printf "%-24s %12s\n" name "n/a")
        analyzed)
    tests
