(* rcc-run: run one simulated deployment from the command line.

     dune exec bin/rcc_run.exe -- --protocol multip -n 32 --batch 100
     dune exec bin/rcc_run.exe -- --protocol zyzzyva -n 16 --fault crash:15
     dune exec bin/rcc_run.exe -- --protocol multip -n 32 --fault collusion:12 \
         --duration 5 --replica-timeout 1 --timeline
*)

open Cmdliner

let protocol_conv =
  let parse s =
    match String.lowercase_ascii s with
    | "pbft" -> Ok Rcc_runtime.Config.Pbft
    | "zyzzyva" | "zyz" -> Ok Rcc_runtime.Config.Zyzzyva
    | "hotstuff" | "hs" -> Ok Rcc_runtime.Config.Hotstuff
    | "multip" -> Ok Rcc_runtime.Config.MultiP
    | "multiz" -> Ok Rcc_runtime.Config.MultiZ
    | "cft" -> Ok Rcc_runtime.Config.Cft
    | "multic" -> Ok Rcc_runtime.Config.MultiC
    | other -> Error (`Msg (Printf.sprintf "unknown protocol %S" other))
  in
  Arg.conv (parse, fun fmt p -> Format.pp_print_string fmt (Rcc_runtime.Config.protocol_name p))

(* crash:ID[,ID..] | dark:INSTANCE:VICTIM[,VICTIM..] | collusion:VICTIM[:ROUND]
   | dos:INSTANCE *)
let fault_conv =
  let parse s =
    let ids part = List.map int_of_string (String.split_on_char ',' part) in
    match String.split_on_char ':' s with
    | [ "none" ] -> Ok Rcc_runtime.Config.No_fault
    | [ "crash"; list ] -> Ok (Rcc_runtime.Config.Crash (ids list))
    | [ "dark"; instance; victims ] ->
        Ok
          (Rcc_runtime.Config.Dark
             { instance = int_of_string instance; victims = ids victims })
    | [ "collusion"; victim ] ->
        Ok
          (Rcc_runtime.Config.Collusion
             { victim = int_of_string victim; at_round = 100 })
    | [ "collusion"; victim; round ] ->
        Ok
          (Rcc_runtime.Config.Collusion
             { victim = int_of_string victim; at_round = int_of_string round })
    | [ "dos"; instance ] ->
        Ok (Rcc_runtime.Config.Client_dos { instance = int_of_string instance })
    | _ -> Error (`Msg (Printf.sprintf "cannot parse fault %S" s))
  in
  let print fmt = function
    | Rcc_runtime.Config.No_fault -> Format.pp_print_string fmt "none"
    | Rcc_runtime.Config.Crash l ->
        Format.fprintf fmt "crash:%s" (String.concat "," (List.map string_of_int l))
    | Rcc_runtime.Config.Dark { instance; victims } ->
        Format.fprintf fmt "dark:%d:%s" instance
          (String.concat "," (List.map string_of_int victims))
    | Rcc_runtime.Config.Collusion { victim; at_round } ->
        Format.fprintf fmt "collusion:%d:%d" victim at_round
    | Rcc_runtime.Config.Client_dos { instance } -> Format.fprintf fmt "dos:%d" instance
  in
  Arg.conv ~docv:"FAULT" (parse, print)

let exec_mode_conv =
  let parse s =
    match String.lowercase_ascii s with
    | "serial" -> Ok Rcc_runtime.Config.Exec_serial
    | "parallel" -> Ok Rcc_runtime.Config.Exec_parallel
    | other -> Error (`Msg (Printf.sprintf "unknown exec mode %S" other))
  in
  Arg.conv
    ( parse,
      fun fmt m ->
        Format.pp_print_string fmt (Rcc_runtime.Config.exec_mode_name m) )

let run protocol n batch_size clients duration warmup replica_timeout
    client_timeout collusion_wait z seed fault exec_mode exec_threads
    exec_window theta write_ratio records arrival_rate arrival_process
    max_in_flight journal storage_faults trace trace_ring timeline quiet =
  Gc.set { (Gc.get ()) with Gc.minor_heap_size = 16 * 1024 * 1024 };
  let seconds f = Rcc_sim.Engine.of_seconds f in
  let cfg =
    Rcc_runtime.Config.make ~protocol ~n ~batch_size ~clients
      ~duration:(seconds duration) ~warmup:(seconds warmup)
      ?replica_timeout:(Option.map seconds replica_timeout)
      ?client_timeout:(Option.map seconds client_timeout)
      ?collusion_wait:(Option.map seconds collusion_wait)
      ?z ~seed ~fault ~exec_mode ~exec_threads ~exec_window
      ?theta ?write_ratio ?records ?arrival_rate ~arrival_process
      ?max_in_flight ~journal ~storage_faults ()
  in
  if not quiet then
    Printf.eprintf
      "running %s n=%d f=%d z=%d batch=%d clients=%d exec=%s%s for %.1fs...\n%!"
      (Rcc_runtime.Config.protocol_name protocol)
      cfg.Rcc_runtime.Config.n cfg.Rcc_runtime.Config.f cfg.Rcc_runtime.Config.z
      batch_size clients
      (Rcc_runtime.Config.exec_mode_name cfg.Rcc_runtime.Config.exec_mode)
      (match cfg.Rcc_runtime.Config.exec_mode with
      | Rcc_runtime.Config.Exec_parallel ->
          Printf.sprintf "(%d threads, window %d)"
            cfg.Rcc_runtime.Config.exec_threads
            cfg.Rcc_runtime.Config.exec_window
      | Rcc_runtime.Config.Exec_serial -> "")
      duration;
  let tracer =
    Option.map (fun _ -> Rcc_trace.Recorder.create ?capacity:trace_ring ()) trace
  in
  let cluster = Rcc_runtime.Cluster.build ?tracer cfg in
  let report = Rcc_runtime.Cluster.run cluster in
  (match (trace, tracer) with
  | Some path, Some recorder ->
      if Filename.check_suffix path ".jsonl" then
        Rcc_trace.Sink.write_jsonl recorder ~path
      else Rcc_trace.Sink.write_chrome recorder ~path;
      if not quiet then
        Printf.eprintf "trace: %d events recorded, %d kept -> %s\n%!"
          (Rcc_trace.Recorder.recorded recorder)
          (Rcc_trace.Recorder.stored recorder)
          path
  | _ -> ());
  Format.printf "%a@." Rcc_runtime.Report.pp report;
  (* Virtual time of the first client completion: with a fault active
     from the start, how long the cluster took to recover. *)
  (match
     Rcc_replica.Metrics.first_completion (Rcc_runtime.Cluster.metrics cluster)
   with
  | Some at ->
      Format.printf "first_completion=%.4fs@." (Rcc_sim.Engine.to_seconds at)
  | None -> Format.printf "first_completion=none@.");
  if timeline then begin
    Format.printf "@.timeline (client txn/s per 100ms):@.";
    Array.iter
      (fun (t, rate) -> Format.printf "  %6.1fs %12.0f@." t rate)
      report.Rcc_runtime.Report.timeline
  end

let cmd =
  let protocol =
    Arg.(value & opt protocol_conv Rcc_runtime.Config.MultiP
         & info [ "p"; "protocol" ] ~doc:"Protocol: pbft, zyzzyva, hotstuff, cft, multip, multiz, multic.")
  in
  let n = Arg.(value & opt int 16 & info [ "n"; "replicas" ] ~doc:"Number of replicas.") in
  let batch = Arg.(value & opt int 100 & info [ "b"; "batch" ] ~doc:"Transactions per batch.") in
  let clients = Arg.(value & opt int 120 & info [ "clients" ] ~doc:"Total simulated clients (closed-loop loopers, or the open-loop pool size).") in
  let duration = Arg.(value & opt float 1.0 & info [ "duration" ] ~doc:"Simulated seconds.") in
  let warmup = Arg.(value & opt float 0.3 & info [ "warmup" ] ~doc:"Warmup seconds (excluded from stats).") in
  let replica_timeout =
    Arg.(value & opt (some float) None & info [ "replica-timeout" ] ~doc:"Replica watchdog seconds (default 10).")
  in
  let client_timeout =
    Arg.(value & opt (some float) None & info [ "client-timeout" ] ~doc:"Client retry timeout seconds (default 15).")
  in
  let collusion_wait =
    Arg.(value & opt (some float) None & info [ "collusion-wait" ] ~doc:"Coordinator collusion wait seconds (default 5).")
  in
  let z = Arg.(value & opt (some int) None & info [ "z"; "instances" ] ~doc:"Concurrent instances (default f+1 for RCC).") in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Deterministic seed.") in
  let fault =
    Arg.(value & opt fault_conv Rcc_runtime.Config.No_fault
         & info [ "fault" ] ~doc:"Fault injection: none, crash:IDS, dark:INST:VICTIMS, collusion:VICTIM[:ROUND], dos:INST.")
  in
  let exec_mode =
    Arg.(value & opt exec_mode_conv Rcc_runtime.Config.Exec_serial
         & info [ "exec-mode" ]
             ~doc:"Execution scheduler: serial (strict order, the digest-gated                    default) or parallel (conflict-aware dependency groups on                    an execute pool).")
  in
  let exec_threads =
    Arg.(value & opt int 4
         & info [ "exec-threads" ] ~doc:"Execute-pool size (parallel mode).")
  in
  let exec_window =
    Arg.(value & opt int 8
         & info [ "exec-window" ]
             ~doc:"Max consecutive rounds per conflict-analysis window.")
  in
  let theta =
    Arg.(value & opt (some float) None
         & info [ "theta" ] ~doc:"YCSB Zipf skew (default 0.9).")
  in
  let write_ratio =
    Arg.(value & opt (some float) None
         & info [ "write-ratio" ] ~doc:"YCSB write fraction (default 0.9).")
  in
  let records =
    Arg.(value & opt (some int) None
         & info [ "records" ] ~doc:"YCSB table size (default 500000).")
  in
  let arrival_rate =
    Arg.(value & opt (some float) None
         & info [ "arrival-rate" ] ~docv:"TXN_PER_S"
             ~doc:"Open-loop offered load in transactions per second. When \
                   set, requests arrive under a deterministic arrival \
                   process and claim idle clients instead of each client \
                   looping; the default (unset) keeps closed-loop clients.")
  in
  let arrival_process =
    let process_conv =
      let parse s =
        match String.lowercase_ascii s with
        | "poisson" -> Ok Rcc_runtime.Config.Poisson
        | "uniform" -> Ok Rcc_runtime.Config.Uniform
        | other -> Error (`Msg (Printf.sprintf "unknown arrival process %S" other))
      in
      Arg.conv
        ( parse,
          fun fmt p ->
            Format.pp_print_string fmt
              (Rcc_runtime.Config.arrival_process_name p) )
    in
    Arg.(value & opt process_conv Rcc_runtime.Config.Poisson
         & info [ "arrival" ] ~docv:"PROCESS"
             ~doc:"Open-loop arrival process: poisson or uniform.")
  in
  let max_in_flight =
    Arg.(value & opt (some int) None
         & info [ "max-in-flight" ] ~docv:"N"
             ~doc:"Open-loop cap on concurrent outstanding requests; \
                   arrivals beyond it are counted as drops. Default: one \
                   per client.")
  in
  let journal =
    Arg.(value & flag
         & info [ "journal" ]
             ~doc:"Give every replica a durable write-ahead journal plus \
                   periodic checkpoint snapshots on a simulated disk \
                   (group-committed, modeled fsync cost, off the execute \
                   path). Off by default: fault-free digests are \
                   byte-identical without it.")
  in
  let storage_faults =
    Arg.(value & opt float 0.0
         & info [ "storage-faults" ] ~docv:"P"
             ~doc:"Probability each journal record / snapshot write is \
                   torn, corrupted or silently lost (per fault mode). \
                   Requires --journal to matter.")
  in
  let trace =
    Arg.(value & opt (some string) None
         & info [ "trace" ] ~docv:"FILE"
             ~doc:"Record a structured trace and write it to $(docv): Chrome \
                   trace-event JSON (chrome://tracing, Perfetto), or JSONL \
                   when $(docv) ends in .jsonl.")
  in
  let trace_ring =
    Arg.(value & opt (some int) None
         & info [ "trace-ring" ] ~docv:"N"
             ~doc:"Trace ring-buffer capacity in events (default 65536); \
                   only the trailing $(docv) events are kept.")
  in
  let timeline = Arg.(value & flag & info [ "timeline" ] ~doc:"Print the throughput timeline.") in
  let quiet = Arg.(value & flag & info [ "q"; "quiet" ] ~doc:"Suppress the progress line.") in
  let term =
    Term.(const run $ protocol $ n $ batch $ clients $ duration $ warmup
          $ replica_timeout $ client_timeout $ collusion_wait $ z $ seed $ fault
          $ exec_mode $ exec_threads $ exec_window $ theta $ write_ratio
          $ records $ arrival_rate $ arrival_process $ max_in_flight
          $ journal $ storage_faults $ trace $ trace_ring $ timeline $ quiet)
  in
  Cmd.v (Cmd.info "rcc-run" ~doc:"Run one RCC/BFT deployment in the simulator") term

let () = exit (Cmd.eval cmd)
