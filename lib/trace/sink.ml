(* Trace serialization. Two formats, both hand-rolled (the repo carries
   no JSON library): line-oriented JSONL for ad-hoc grepping, and the
   Chrome trace_event array format that Perfetto / chrome://tracing load
   directly. Timestamps are simulated nanoseconds in JSONL and
   microseconds (the trace_event convention) in Chrome output. *)

let escape s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* Payload-specific fields as JSON members, shared by both sinks. *)
let payload_args (p : Event.payload) =
  match p with
  | Event.Net_send { kind; size; src; dst } | Event.Net_deliver { kind; size; src; dst }
    ->
      Printf.sprintf "\"kind\":\"%s\",\"size\":%d,\"src\":%d,\"dst\":%d"
        (escape kind) size src dst
  | Event.Span { track; dur } ->
      Printf.sprintf "\"track\":\"%s\",\"dur_ns\":%d" (escape track) dur
  | Event.Slot_propose { round } -> Printf.sprintf "\"round\":%d" round
  | Event.Slot_accept { round; batch; txns } | Event.Slot_exec { round; batch; txns }
    ->
      Printf.sprintf "\"round\":%d,\"batch\":%d,\"txns\":%d" round batch txns
  | Event.Exec_group { group; members; txns; rounds } ->
      Printf.sprintf "\"group\":%d,\"members\":%d,\"txns\":%d,\"rounds\":%d"
        group members txns rounds
  | Event.Exec_conflict { group; keys } ->
      Printf.sprintf "\"group\":%d,\"keys\":%d" group keys
  | Event.Primary_change { primary; view } ->
      Printf.sprintf "\"primary\":%d,\"view\":%d" primary view
  | Event.Kmal { culprit } -> Printf.sprintf "\"culprit\":%d" culprit
  | Event.Blame { round; blamed; accuser } ->
      Printf.sprintf "\"round\":%d,\"blamed\":%d,\"accuser\":%d" round blamed
        accuser
  | Event.Contract_sent { round; entries; bytes } ->
      Printf.sprintf "\"round\":%d,\"entries\":%d,\"bytes\":%d" round entries
        bytes
  | Event.Contract_adopted { round; entries; disputed } ->
      Printf.sprintf "\"round\":%d,\"entries\":%d,\"disputed\":%d" round
        entries disputed
  | Event.Checkpoint_stable { upto } -> Printf.sprintf "\"upto\":%d" upto
  | Event.Collusion -> ""
  | Event.Violation { name } -> Printf.sprintf "\"name\":\"%s\"" (escape name)
  | Event.St_gap { behind; target } ->
      Printf.sprintf "\"behind\":%d,\"target\":%d" behind target
  | Event.St_request { seq; fetch } ->
      Printf.sprintf "\"seq\":%d,\"fetch\":%b" seq fetch
  | Event.St_served { seq; bytes; dst } ->
      Printf.sprintf "\"seq\":%d,\"bytes\":%d,\"dst\":%d" seq bytes dst
  | Event.St_verified { seq } -> Printf.sprintf "\"seq\":%d" seq
  | Event.St_installed { seq; rounds; bytes } ->
      Printf.sprintf "\"seq\":%d,\"rounds\":%d,\"bytes\":%d" seq rounds bytes
  | Event.St_rejected { seq; donor; reason } ->
      Printf.sprintf "\"seq\":%d,\"donor\":%d,\"reason\":\"%s\"" seq donor
        (escape reason)
  | Event.Rollback_begin { frontier; from } ->
      Printf.sprintf "\"frontier\":%d,\"from\":%d" frontier from
  | Event.Rollback_round { round; txns } ->
      Printf.sprintf "\"round\":%d,\"txns\":%d" round txns
  | Event.Rollback_complete { frontier; rounds; txns } ->
      Printf.sprintf "\"frontier\":%d,\"rounds\":%d,\"txns\":%d" frontier
        rounds txns
  | Event.Journal_flush { records; bytes; durable } ->
      Printf.sprintf "\"records\":%d,\"bytes\":%d,\"durable\":%d" records
        bytes durable
  | Event.Journal_snapshot { seq; bytes } ->
      Printf.sprintf "\"seq\":%d,\"bytes\":%d" seq bytes
  | Event.Journal_fault { kind } ->
      Printf.sprintf "\"kind\":\"%s\"" (escape kind)
  | Event.Journal_truncated { durable; dropped } ->
      Printf.sprintf "\"durable\":%d,\"dropped\":%d" durable dropped
  | Event.Journal_compacted { below; dropped_bytes } ->
      Printf.sprintf "\"below\":%d,\"dropped_bytes\":%d" below dropped_bytes
  | Event.Journal_replay_begin { seq } -> Printf.sprintf "\"seq\":%d" seq
  | Event.Journal_replay_round { round; txns } ->
      Printf.sprintf "\"round\":%d,\"txns\":%d" round txns
  | Event.Journal_replay_complete { frontier; rounds; txns } ->
      Printf.sprintf "\"frontier\":%d,\"rounds\":%d,\"txns\":%d" frontier
        rounds txns

(* --- JSONL --------------------------------------------------------------- *)

let jsonl_line (ev : Event.t) =
  let args = payload_args ev.payload in
  Printf.sprintf "{\"ts\":%d,\"replica\":%d,\"instance\":%d,\"ev\":\"%s\"%s%s}"
    ev.at ev.replica ev.instance
    (Event.name ev.payload)
    (if args = "" then "" else ",")
    args

let jsonl recorder =
  let buf = Buffer.create 4096 in
  Recorder.iter recorder (fun ev ->
      Buffer.add_string buf (jsonl_line ev);
      Buffer.add_char buf '\n');
  Buffer.contents buf

(* --- Chrome trace_event -------------------------------------------------- *)

(* pid = node (replica or client machine); events with no node land in a
   synthetic "global" process. tid 0 carries instance-less events, tid
   x+1 carries instance x, and CPU/NIC spans get their own named thread
   per track so Perfetto renders them as busy timelines. *)
let global_pid = 9_999
let pid_of (ev : Event.t) = if ev.replica < 0 then global_pid else ev.replica

let us_of_ns ns = Printf.sprintf "%.3f" (float_of_int ns /. 1e3)

let chrome recorder =
  let buf = Buffer.create 8192 in
  Buffer.add_string buf "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  let first = ref true in
  let emit s =
    if !first then first := false else Buffer.add_char buf ',';
    Buffer.add_string buf s
  in
  (* (pid, track) -> tid for span threads; plain events use tid 0 / x+1. *)
  let span_tids : (int * string, int) Hashtbl.t = Hashtbl.create 32 in
  let next_span_tid = ref 100 in
  let named_threads = ref [] in
  let name_thread pid tid label =
    named_threads := (pid, tid, label) :: !named_threads
  in
  let pids = Hashtbl.create 32 in
  let note_pid pid =
    if not (Hashtbl.mem pids pid) then Hashtbl.replace pids pid ()
  in
  let instance_tids = Hashtbl.create 32 in
  Recorder.iter recorder (fun ev ->
      let pid = pid_of ev in
      note_pid pid;
      let name = Event.name ev.payload in
      let args = payload_args ev.payload in
      let args = if args = "" then "{}" else "{" ^ args ^ "}" in
      match ev.payload with
      | Event.Span { track; dur } ->
          let tid =
            match Hashtbl.find_opt span_tids (pid, track) with
            | Some tid -> tid
            | None ->
                let tid = !next_span_tid in
                incr next_span_tid;
                Hashtbl.replace span_tids (pid, track) tid;
                name_thread pid tid track;
                tid
          in
          emit
            (Printf.sprintf
               "{\"name\":\"%s\",\"ph\":\"X\",\"ts\":%s,\"dur\":%s,\"pid\":%d,\"tid\":%d,\"args\":%s}"
               (escape track) (us_of_ns ev.at) (us_of_ns dur) pid tid args)
      | _ ->
          let tid = ev.instance + 1 in
          if not (Hashtbl.mem instance_tids (pid, tid)) then begin
            Hashtbl.replace instance_tids (pid, tid) ();
            name_thread pid tid
              (if tid = 0 then "events"
               else Printf.sprintf "instance %d" ev.instance)
          end;
          let scope =
            match ev.payload with Event.Violation _ -> "g" | _ -> "t"
          in
          emit
            (Printf.sprintf
               "{\"name\":\"%s\",\"ph\":\"i\",\"s\":\"%s\",\"ts\":%s,\"pid\":%d,\"tid\":%d,\"args\":%s}"
               name scope (us_of_ns ev.at) pid tid args));
  Hashtbl.iter
    (fun pid () ->
      let label = if pid = global_pid then "global" else Printf.sprintf "node %d" pid in
      emit
        (Printf.sprintf
           "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%d,\"tid\":0,\"args\":{\"name\":\"%s\"}}"
           pid label))
    pids;
  List.iter
    (fun (pid, tid, label) ->
      emit
        (Printf.sprintf
           "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":%d,\"tid\":%d,\"args\":{\"name\":\"%s\"}}"
           pid tid (escape label)))
    (List.rev !named_threads);
  Buffer.add_string buf "]}";
  Buffer.contents buf

(* --- files --------------------------------------------------------------- *)

let write_file ~path contents =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc contents)

let write_jsonl recorder ~path = write_file ~path (jsonl recorder)
let write_chrome recorder ~path = write_file ~path (chrome recorder)
