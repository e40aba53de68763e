module Stats = Rcc_common.Stats
module Engine = Rcc_sim.Engine

(* Per-instance sub-metrics: RCC's claims are per-instance claims (each
   of the z concurrent primaries stalls, colludes and gets replaced on
   its own), so the aggregate alone cannot show a straggler. *)
type instance_metrics = {
  mutable i_txns : int;
  mutable i_batches : int;
  i_latency : Stats.Histogram.t;
  i_throughput : Stats.Series.t;
  mutable i_view_changes : int;
  mutable i_rolled_back_rounds : int;
  mutable i_rolled_back_txns : int;
}

type t = {
  warmup : Engine.time;
  mutable txns : int;
  mutable batches : int;
  latency : Stats.Histogram.t;
  throughput : Stats.Series.t;  (* post-warmup completions only *)
  warm_throughput : Stats.Series.t;  (* completions inside the warmup *)
  exec_per_replica : Stats.Series.t array;
  per_instance : instance_metrics array;
  mutable view_changes : int;
  mutable collusions : int;
  mutable contract_bytes : int;
  mutable first_completion : Engine.time;  (* -1 until one completes *)
}

let bucket = 0.1 (* seconds *)

let create ~n ?(instances = 1) ~warmup () =
  {
    warmup;
    txns = 0;
    batches = 0;
    latency = Stats.Histogram.create ();
    throughput = Stats.Series.create ~bucket_width:bucket ();
    warm_throughput = Stats.Series.create ~bucket_width:bucket ();
    exec_per_replica =
      Array.init n (fun _ -> Stats.Series.create ~bucket_width:bucket ());
    per_instance =
      Array.init (max 1 instances) (fun _ ->
          {
            i_txns = 0;
            i_batches = 0;
            i_latency = Stats.Histogram.create ();
            i_throughput = Stats.Series.create ~bucket_width:bucket ();
            i_view_changes = 0;
            i_rolled_back_rounds = 0;
            i_rolled_back_txns = 0;
          });
    view_changes = 0;
    collusions = 0;
    contract_bytes = 0;
    first_completion = -1;
  }

let warmup t = t.warmup
let instances t = Array.length t.per_instance

let sub t instance =
  if instance >= 0 && instance < Array.length t.per_instance then
    Some t.per_instance.(instance)
  else None

(* Warmup completions go to a separate series so [timeline] and the
   scalar counters agree: by default the timeline only carries what
   [committed_txns]/[throughput] count, and the full-run view (warmup
   merged back in) is explicit. *)
let record_completion ?(instance = -1) t ~now ~ntxns ~latency =
  if t.first_completion < 0 then t.first_completion <- now;
  let time = Engine.to_seconds now in
  if now >= t.warmup then begin
    Stats.Series.add t.throughput ~time (float_of_int ntxns);
    t.txns <- t.txns + ntxns;
    t.batches <- t.batches + 1;
    Stats.Histogram.add t.latency (Engine.to_seconds latency);
    match sub t instance with
    | Some s ->
        Stats.Series.add s.i_throughput ~time (float_of_int ntxns);
        s.i_txns <- s.i_txns + ntxns;
        s.i_batches <- s.i_batches + 1;
        Stats.Histogram.add s.i_latency (Engine.to_seconds latency)
    | None -> ()
  end
  else Stats.Series.add t.warm_throughput ~time (float_of_int ntxns)

let record_exec t ~replica ~now ~ntxns =
  Stats.Series.add t.exec_per_replica.(replica) ~time:(Engine.to_seconds now)
    (float_of_int ntxns)

let record_view_change ?(instance = -1) t =
  t.view_changes <- t.view_changes + 1;
  match sub t instance with
  | Some s -> s.i_view_changes <- s.i_view_changes + 1
  | None -> ()

let record_rollback ?(instance = -1) t ~rounds ~txns =
  match sub t instance with
  | Some s ->
      s.i_rolled_back_rounds <- s.i_rolled_back_rounds + rounds;
      s.i_rolled_back_txns <- s.i_rolled_back_txns + txns
  | None -> ()

let record_collusion_detected t = t.collusions <- t.collusions + 1
let record_contract_bytes t b = t.contract_bytes <- t.contract_bytes + b

let first_completion t =
  if t.first_completion < 0 then None else Some t.first_completion

let committed_txns t = t.txns
let committed_batches t = t.batches

let measured_span t ~duration =
  Engine.to_seconds (duration - t.warmup)

let throughput t ~duration =
  let span = measured_span t ~duration in
  if span <= 0.0 then 0.0 else float_of_int t.txns /. span

let avg_latency t = Stats.Histogram.mean t.latency
let latency_percentile t p = Stats.Histogram.percentile t.latency p

let timeline ?(include_warmup = false) t =
  let post = Stats.Series.rates t.throughput in
  if not include_warmup then post
  else begin
    let warm = Stats.Series.rates t.warm_throughput in
    let len = max (Array.length post) (Array.length warm) in
    Array.init len (fun i ->
        let time = float_of_int i *. bucket in
        let at (series : (float * float) array) =
          if i < Array.length series then snd series.(i) else 0.0
        in
        (time, at post +. at warm))
  end

let exec_timeline t ~replica = Stats.Series.rates t.exec_per_replica.(replica)
let view_changes t = t.view_changes
let collusions_detected t = t.collusions
let contract_bytes t = t.contract_bytes

let instance_txns t x = match sub t x with Some s -> s.i_txns | None -> 0

let instance_throughput t x ~duration =
  let span = measured_span t ~duration in
  if span <= 0.0 then 0.0
  else match sub t x with
    | Some s -> float_of_int s.i_txns /. span
    | None -> 0.0

let instance_avg_latency t x =
  match sub t x with Some s -> Stats.Histogram.mean s.i_latency | None -> 0.0

let instance_latency_percentile t x p =
  match sub t x with
  | Some s -> Stats.Histogram.percentile s.i_latency p
  | None -> 0.0

let instance_view_changes t x =
  match sub t x with Some s -> s.i_view_changes | None -> 0

let instance_rolled_back_rounds t x =
  match sub t x with Some s -> s.i_rolled_back_rounds | None -> 0

let instance_rolled_back_txns t x =
  match sub t x with Some s -> s.i_rolled_back_txns | None -> 0

let instance_timeline t x =
  match sub t x with Some s -> Stats.Series.rates s.i_throughput | None -> [||]
