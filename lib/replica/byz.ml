open Rcc_common.Ids

type dark = {
  victims : replica_id list;
  from_round : round;
  until_round : round option;
}

type t = {
  mutable byzantine : bool;
  mutable dark : dark option;
  mutable false_blame : replica_id list;
  mutable ignore_clients : bool;
  mutable equivocate : bool;
  mutable forge_views : bool;
  mutable corrupt_snapshot : bool;
  mutable forge_contracts : bool;
}

let honest =
  {
    byzantine = false;
    dark = None;
    false_blame = [];
    ignore_clients = false;
    equivocate = false;
    forge_views = false;
    corrupt_snapshot = false;
    forge_contracts = false;
  }

let dark_primary ~victims ?(from_round = 0) ?until_round () =
  {
    honest with
    byzantine = true;
    dark = Some { victims; from_round; until_round };
  }

let false_blamer ~blames = { honest with byzantine = true; false_blame = blames }

let client_ignorer = { honest with byzantine = true; ignore_clients = true }

let equivocator = { honest with byzantine = true; equivocate = true }

let view_forger = { honest with byzantine = true; forge_views = true }

let snapshot_corruptor = { honest with byzantine = true; corrupt_snapshot = true }

let contract_forger = { honest with byzantine = true; forge_contracts = true }

let copy t = { t with byzantine = t.byzantine }

let set dst src =
  dst.byzantine <- src.byzantine;
  dst.dark <- src.dark;
  dst.false_blame <- src.false_blame;
  dst.ignore_clients <- src.ignore_clients;
  dst.equivocate <- src.equivocate;
  dst.forge_views <- src.forge_views;
  dst.corrupt_snapshot <- src.corrupt_snapshot;
  dst.forge_contracts <- src.forge_contracts

let excludes t ~round victim =
  match t.dark with
  | None -> false
  | Some d ->
      round >= d.from_round
      && (match d.until_round with None -> true | Some last -> round <= last)
      && List.mem victim d.victims
