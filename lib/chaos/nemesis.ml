module Engine = Rcc_sim.Engine
module Net = Rcc_sim.Net
module Byz = Rcc_replica.Byz
module Cluster = Rcc_runtime.Cluster
module Config = Rcc_runtime.Config
module Rng = Rcc_common.Rng

type t = {
  cluster : Cluster.t;
  n : int;
  rng : Rng.t;
  mutable partition_rule : Net.rule_id option;
  mutable link_rules : Net.rule_id list;  (* delay / drop / dup rules *)
  byz_tainted : bool array;
  crashed : bool array;
  mutable applied : int;
}

let net t = Cluster.net t.cluster

(* Membership test for a from/to set; [] is a wildcard over replicas. *)
let in_set t set node =
  match set with [] -> node < t.n | l -> List.mem node l

let remove_partition t =
  match t.partition_rule with
  | Some id ->
      Net.remove_rule (net t) id;
      t.partition_rule <- None
  | None -> ()

let heal t =
  remove_partition t;
  List.iter (Net.remove_rule (net t)) t.link_rules;
  t.link_rules <- []

let apply_partition t groups =
  remove_partition t;
  (* Replicas absent from every listed group form the remainder group. *)
  let group_of = Array.make t.n (List.length groups) in
  List.iteri
    (fun g members ->
      List.iter (fun r -> if r >= 0 && r < t.n then group_of.(r) <- g) members)
    groups;
  t.partition_rule <-
    Some
      (Net.add_drop_rule (net t) (fun ~src ~dst _ ->
           src < t.n && dst < t.n && group_of.(src) <> group_of.(dst)))

let spec_of_behaviour = function
  | Script.Dark victims -> Byz.dark_primary ~victims ()
  | Script.False_blame blames -> Byz.false_blamer ~blames
  | Script.Ignore_clients -> Byz.client_ignorer
  | Script.Equivocate -> Byz.equivocator
  | Script.Forge_views -> Byz.view_forger
  | Script.Corrupt_snapshot -> Byz.snapshot_corruptor

let apply t action =
  t.applied <- t.applied + 1;
  match action with
  | Script.Partition groups -> apply_partition t groups
  | Script.Heal -> heal t
  | Script.Delay_links { from_set; to_set; extra } ->
      let id =
        Net.add_delay_rule (net t) (fun ~src ~dst ->
            if in_set t from_set src && in_set t to_set dst then extra else 0)
      in
      t.link_rules <- id :: t.link_rules
  | Script.Drop_links { from_set; to_set; prob } ->
      let id =
        Net.add_drop_rule (net t) (fun ~src ~dst _ ->
            in_set t from_set src && in_set t to_set dst
            && (prob >= 1.0 || Rng.float t.rng 1.0 < prob))
      in
      t.link_rules <- id :: t.link_rules
  | Script.Duplicate_links { prob } ->
      let id =
        Net.add_dup_rule (net t) (fun ~src:_ ~dst:_ _ ->
            if Rng.float t.rng 1.0 < prob then 1 else 0)
      in
      t.link_rules <- id :: t.link_rules
  | Script.Crash r ->
      t.crashed.(r) <- true;
      Net.set_dead (net t) r true
  | Script.Restart r ->
      t.crashed.(r) <- false;
      Net.set_dead (net t) r false
  | Script.Byz_on (r, behaviour) ->
      t.byz_tainted.(r) <- true;
      Byz.set (Cluster.byz_spec t.cluster r) (spec_of_behaviour behaviour)
  | Script.Byz_off r -> Byz.set (Cluster.byz_spec t.cluster r) Byz.honest
  | Script.Restart_from_disk r ->
      (* The successor incarnation is live again ([Cluster.restart_from_disk]
         clears the dead flag), so the invariant checker re-includes it:
         a journal-recovered replica re-enters the agreement and
         no-divergence guarantees after its drain window. *)
      t.crashed.(r) <- false;
      ignore (Cluster.restart_from_disk t.cluster r)
  | Script.Storage_faults (r, p) -> Cluster.set_storage_faults t.cluster r p

let install ?(seed = 0x6e656d) cluster script =
  let cfg = Cluster.config cluster in
  let n = cfg.Config.n in
  let t =
    {
      cluster;
      n;
      rng = Rng.create seed;
      partition_rule = None;
      link_rules = [];
      byz_tainted = Array.make n false;
      crashed = Array.make n false;
      applied = 0;
    }
  in
  let engine = Cluster.engine cluster in
  List.iter
    (fun { Script.at; action } ->
      Engine.schedule_at engine at (fun () -> apply t action))
    (Script.sorted script);
  t

let listed flags =
  Array.to_seq flags
  |> Seq.mapi (fun i b -> (i, b))
  |> Seq.filter_map (fun (i, b) -> if b then Some i else None)
  |> List.of_seq

let tainted t = listed t.byz_tainted
let dead_now t = listed t.crashed
