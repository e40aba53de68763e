open Rcc_common.Ids

type behaviour =
  | Dark of replica_id list
  | False_blame of replica_id list
  | Ignore_clients
  | Equivocate
  | Forge_views
  | Corrupt_snapshot
  | Forge_contracts

type action =
  | Partition of replica_id list list
  | Heal
  | Delay_links of {
      from_set : replica_id list;
      to_set : replica_id list;
      extra : Rcc_sim.Engine.time;
    }
  | Drop_links of {
      from_set : replica_id list;
      to_set : replica_id list;
      prob : float;
    }
  | Duplicate_links of { prob : float }
  | Crash of replica_id
  | Restart of replica_id
  | Byz_on of replica_id * behaviour
  | Byz_off of replica_id
  | Restart_from_disk of replica_id
  | Storage_faults of replica_id * float

type event = { at : Rcc_sim.Engine.time; action : action }

type t = event list

let sorted t = List.stable_sort (fun a b -> compare a.at b.at) t

let last_event_time t = List.fold_left (fun acc e -> max acc e.at) 0 t

let faulty_replicas t =
  List.sort_uniq compare
    (List.concat_map
       (fun e ->
         match e.action with
         | Crash r | Byz_on (r, _) | Storage_faults (r, _) -> [ r ]
         | Partition _ | Heal | Delay_links _ | Drop_links _
         | Duplicate_links _ | Restart _ | Restart_from_disk _ | Byz_off _ ->
             [])
       t)

let ids l = String.concat "," (List.map string_of_int l)

let set_or_all = function [] -> "*" | l -> ids l

let behaviour_to_string = function
  | Dark victims -> Printf.sprintf "dark(%s)" (ids victims)
  | False_blame blamed -> Printf.sprintf "false_blame(%s)" (ids blamed)
  | Ignore_clients -> "ignore_clients"
  | Equivocate -> "equivocate"
  | Forge_views -> "forge_views"
  | Corrupt_snapshot -> "corrupt_snapshot"
  | Forge_contracts -> "forge_contracts"

let action_to_string = function
  | Partition groups ->
      Printf.sprintf "partition %s"
        (String.concat "|" (List.map (fun g -> "{" ^ ids g ^ "}") groups))
  | Heal -> "heal"
  | Delay_links { from_set; to_set; extra } ->
      Printf.sprintf "delay %s->%s +%dus" (set_or_all from_set)
        (set_or_all to_set) (extra / 1_000)
  | Drop_links { from_set; to_set; prob } ->
      Printf.sprintf "drop %s->%s p=%.2f" (set_or_all from_set)
        (set_or_all to_set) prob
  | Duplicate_links { prob } -> Printf.sprintf "duplicate p=%.2f" prob
  | Crash r -> Printf.sprintf "crash %d" r
  | Restart r -> Printf.sprintf "restart %d" r
  | Byz_on (r, b) -> Printf.sprintf "byz %d %s" r (behaviour_to_string b)
  | Byz_off r -> Printf.sprintf "honest %d" r
  | Restart_from_disk r -> Printf.sprintf "restart_from_disk %d" r
  | Storage_faults (r, p) -> Printf.sprintf "storage_faults %d p=%.2f" r p

let to_string t =
  String.concat ""
    (List.map
       (fun e ->
         Printf.sprintf "t=%dms %s\n" (e.at / 1_000_000) (action_to_string e.action))
       (sorted t))

let pp fmt t = Format.pp_print_string fmt (to_string t)
