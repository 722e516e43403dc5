(* rrs — command-line front end for the reconfigurable-resource-scheduling
   library.

   Subcommands: gen, info, run, trace-run, report, compare, sweep,
   weighted, faults. An instance SOURCE argument is either a workload
   spec ("uniform:colors=8,load=0.9") or "@path/to/file.trace". *)

open Cmdliner

let setup_logs verbose =
  Fmt_tty.setup_std_outputs ();
  Logs.set_reporter (Logs_fmt.reporter ());
  Logs.set_level (if verbose then Some Logs.Debug else Some Logs.Warning)

let verbose_arg =
  let doc = "Enable debug-level engine tracing." in
  Term.(const setup_logs $ Arg.(value & flag & info [ "v"; "verbose" ] ~doc))

let load_source source =
  if String.length source > 0 && source.[0] = '@' then
    let path = String.sub source 1 (String.length source - 1) in
    Rrs_sim.Trace.load ~path
  else Rrs_workload.Spec.parse source

let or_die = function
  | Ok value -> value
  | Error message ->
      Format.eprintf "error: %s@." message;
      exit 1

let source_arg =
  let doc =
    "Instance source: a workload spec like 'uniform:colors=8,load=0.9' \
     (kinds: " ^ String.concat ", " Rrs_workload.Spec.kinds
    ^ ") or '@file.trace'."
  in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"SOURCE" ~doc)

let n_arg =
  Arg.(value & opt int 8 & info [ "n" ] ~docv:"N" ~doc:"Online resources.")

let m_arg =
  Arg.(
    value & opt int 1
    & info [ "m" ] ~docv:"M" ~doc:"Offline adversary resources (references).")

(* ---- gen ---- *)

let gen_cmd =
  let output =
    Arg.(
      value & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Write the trace to $(docv).")
  in
  let run source output =
    let instance = or_die (load_source source) in
    match output with
    | Some path ->
        Rrs_sim.Trace.save instance ~path;
        Format.printf "%a@.wrote %s@." Rrs_sim.Instance.pp_summary instance path
    | None -> print_string (Rrs_sim.Trace.to_string instance)
  in
  Cmd.v
    (Cmd.info "gen" ~doc:"Generate a workload and print or save its trace.")
    Term.(const run $ source_arg $ output)

(* ---- info ---- *)

let info_cmd =
  let run source =
    let instance = or_die (load_source source) in
    Format.printf "%a@." Rrs_sim.Instance.pp_summary instance;
    Format.printf "pipeline: %s@."
      (Rrs_core.Solver.pipeline_to_string (Rrs_core.Solver.classify instance));
    let bounds = instance.Rrs_sim.Instance.bounds in
    let distinct = List.sort_uniq Int.compare (Array.to_list bounds) in
    Format.printf "distinct delay bounds: %s@."
      (String.concat ", " (List.map string_of_int distinct))
  in
  Cmd.v
    (Cmd.info "info" ~doc:"Classify an instance and print its summary.")
    Term.(const run $ source_arg)

(* ---- run ---- *)

let algo_arg =
  let doc = "Algorithm: dlru, edf, dlru-edf, seq-edf, or solver (the layered pipeline)." in
  Arg.(value & opt string "solver" & info [ "algo" ] ~docv:"ALGO" ~doc)

let policy_of_name = Rrs_core.Policies.find

let run_cmd =
  let no_validate =
    Arg.(value & flag & info [ "no-validate" ] ~doc:"Skip schedule validation.")
  in
  let timeline =
    Arg.(
      value & flag
      & info [ "timeline" ]
          ~doc:"Print an ASCII timeline of the schedule (solver only).")
  in
  let metrics =
    Arg.(
      value & flag
      & info [ "metrics" ]
          ~doc:"Print per-color QoS metrics (solver only).")
  in
  let run () source n algo no_validate timeline metrics =
    let instance = or_die (load_source source) in
    let delta = instance.Rrs_sim.Instance.delta in
    match algo with
    | "solver" -> (
        let outcome = or_die (Rrs_core.Solver.solve ~n instance) in
        Format.printf "pipeline: %s@."
          (Rrs_core.Solver.pipeline_to_string outcome.pipeline);
        Format.printf "cost: %d (reconfig %d x %d = %d, drops %d)@." outcome.cost
          outcome.reconfig_count delta (delta * outcome.reconfig_count)
          outcome.drop_count;
        List.iter (fun (key, value) -> Format.printf "  %s = %d@." key value)
          outcome.inner.stats;
        if timeline then
          print_string (Rrs_stats.Render.timeline ~max_width:110 outcome.schedule);
        if metrics then
          Rrs_stats.Table.print
            (Rrs_stats.Metrics.to_table
               (Rrs_stats.Metrics.of_schedule outcome.schedule));
        if not no_validate then
          match Rrs_sim.Schedule.validate outcome.schedule with
          | Ok () -> Format.printf "schedule: valid@."
          | Error errors ->
              Format.printf "schedule INVALID (%d errors):@." (List.length errors);
              List.iteri
                (fun i e -> if i < 5 then Format.printf "  %s@." e)
                errors;
              exit 1)
    | name -> (
        match policy_of_name name with
        | None ->
            Format.eprintf "unknown algorithm %S@." name;
            exit 1
        | Some policy ->
            let result =
              Rrs_sim.Engine.run ~record_events:(not no_validate) ~n ~policy
                instance
            in
            Format.printf "%a@." Rrs_sim.Ledger.pp_summary result.ledger;
            List.iter (fun (key, value) -> Format.printf "  %s = %d@." key value)
              result.stats;
            if not no_validate then
              let schedule =
                Rrs_sim.Schedule.of_run ~instance ~n ~speed:1 result.ledger
              in
              match Rrs_sim.Schedule.validate schedule with
              | Ok () -> Format.printf "schedule: valid@."
              | Error errors ->
                  Format.printf "schedule INVALID (%d errors)@."
                    (List.length errors);
                  exit 1)
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Run one algorithm on an instance.")
    Term.(
      const run $ verbose_arg $ source_arg $ n_arg $ algo_arg $ no_validate
      $ timeline $ metrics)

let csv_arg =
  Arg.(value & flag & info [ "csv" ] ~doc:"Emit CSV instead of an ASCII table.")

(* ---- trace-run ---- *)

let trace_run_cmd =
  (* Unlike [run], the solver pipeline is not an option here — the trace
     streams engine rounds — so the default is the paper's algorithm. *)
  let algo_arg =
    let doc = "Algorithm: dlru, edf, dlru-edf or seq-edf." in
    Arg.(value & opt string "dlru-edf" & info [ "algo" ] ~docv:"ALGO" ~doc)
  in
  let output =
    Arg.(
      value & opt string "rrs-events.jsonl"
      & info [ "o"; "output" ] ~docv:"FILE"
          ~doc:
            "Write the event stream to $(docv) as versioned JSONL (schema \
             rrs-events/2, one JSON object per line; read it back with \
             'rrs report').")
  in
  let faults_file =
    Arg.(
      value & opt (some string) None
      & info [ "faults" ] ~docv:"PLAN"
          ~doc:
            "Inject the rrs-faults/1 plan from $(docv) (see 'rrs faults'): \
             crashed locations go dark, poisoned reconfigurations pay delta \
             without taking effect.")
  in
  let run () source n algo output faults_file =
    let instance = or_die (load_source source) in
    match policy_of_name algo with
    | None ->
        Format.eprintf
          "unknown algorithm %S (trace-run drives the engine; use dlru, edf, \
           dlru-edf or seq-edf)@."
          algo;
        exit 1
    | Some policy ->
        let faults =
          Option.map (fun path -> or_die (Rrs_sim.Fault.load ~path)) faults_file
        in
        let channel = open_out output in
        let result =
          Fun.protect
            ~finally:(fun () -> close_out channel)
            (fun () ->
              Rrs_sim.Engine.run ~sink:(Rrs_sim.Event_sink.Jsonl channel)
                ~profile:true ?faults ~n ~policy instance)
        in
        Format.printf "%a@." Rrs_sim.Ledger.pp_summary result.ledger;
        (match result.profile with
        | Some profile -> Rrs_stats.Table.print (Rrs_stats.Render.phase_table profile)
        | None -> ());
        List.iter (fun (key, value) -> Format.printf "  %s = %d@." key value)
          result.stats;
        (* The distributions come from the stream just written, the same
           fold 'rrs report' runs. *)
        (match Rrs_stats.Report.of_path output with
        | Ok report ->
            List.iter Rrs_stats.Table.print (Rrs_stats.Report.tables report)
        | Error message ->
            Format.eprintf "error: %s: %s@." output message;
            exit 1);
        Format.eprintf "wrote %s@." output
  in
  Cmd.v
    (Cmd.info "trace-run"
       ~doc:
         "Run one engine algorithm while streaming every ledger event and \
          per-round snapshot to a JSONL file (bounded memory at any horizon).")
    Term.(
      const run $ verbose_arg $ source_arg $ n_arg $ algo_arg $ output
      $ faults_file)

(* ---- report ---- *)

let report_cmd =
  let file_arg =
    Arg.(
      required & pos 0 (some string) None
      & info [] ~docv:"FILE"
          ~doc:
            "An rrs-events/1 or /2 JSONL file from trace-run, or '-' to \
             read the stream from standard input.")
  in
  let run file csv =
    match
      if file = "-" then Rrs_stats.Report.of_channel stdin
      else Rrs_stats.Report.of_path file
    with
    | Error message ->
        Format.eprintf "error: %s: %s@." file message;
        exit 1
    | Ok report ->
        let header = report.Rrs_stats.Report.header in
        if not csv then
          Format.printf "%s: delta=%d n=%d speed=%d horizon=%d colors=%d \
                         (%d events, %d rounds)@."
            header.Rrs_sim.Event_sink.hdr_name header.hdr_delta header.hdr_n
            header.hdr_speed header.hdr_horizon
            (Array.length header.hdr_bounds)
            report.Rrs_stats.Report.events_seen
            report.Rrs_stats.Report.rounds_seen;
        print_string (Rrs_stats.Report.summary_string report);
        print_newline ();
        List.iter
          (fun table ->
            if csv then print_string (Rrs_stats.Table.to_csv table)
            else Rrs_stats.Table.print table)
          (Rrs_stats.Report.tables report)
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:
         "Reconstruct a run from its JSONL event stream: the exact ledger \
          summary plus slack/latency/churn/queue-depth percentile tables.")
    Term.(const run $ file_arg $ csv_arg)

(* ---- compare ---- *)

let compare_cmd =
  let exact =
    Arg.(
      value & opt int 0
      & info [ "exact" ] ~docv:"STATES"
          ~doc:"Brute-force OPT state budget (0 = skip).")
  in
  let run source n m exact csv =
    let instance = or_die (load_source source) in
    if not csv then Format.printf "%a@." Rrs_sim.Instance.pp_summary instance;
    let reference = Rrs_stats.Experiment.reference ~exact_budget:exact ~m instance in
    if not csv then
    Format.printf "references (m=%d): lower bound %d%s%s@." m
      reference.lower_bound
      (match reference.exact with
      | Some opt -> Printf.sprintf ", exact OPT %d" opt
      | None -> "")
      (match reference.greedy_upper with
      | Some g -> Printf.sprintf ", greedy upper %d" g
      | None -> "");
    let table =
      Rrs_stats.Table.create ~title:(Printf.sprintf "comparison (n=%d)" n)
        ~columns:[ "algorithm"; "cost"; "reconfig"; "drops"; "ratio" ]
    in
    List.iter
      (fun (name, policy) ->
        let row = Rrs_stats.Experiment.run_policy ~n ~reference ~policy instance in
        Rrs_stats.Table.add_row table
          [
            name;
            Rrs_stats.Table.cell_int row.cost;
            Rrs_stats.Table.cell_int row.reconfig_count;
            Rrs_stats.Table.cell_int row.drop_count;
            Rrs_stats.Table.cell_ratio row.ratio;
          ])
      Rrs_stats.Experiment.standard_policies;
    (match Rrs_stats.Experiment.run_solver ~n ~reference instance with
    | Ok row ->
        Rrs_stats.Table.add_row table
          [
            row.algorithm;
            Rrs_stats.Table.cell_int row.cost;
            Rrs_stats.Table.cell_int row.reconfig_count;
            Rrs_stats.Table.cell_int row.drop_count;
            Rrs_stats.Table.cell_ratio row.ratio;
          ]
    | Error message -> Format.printf "solver failed: %s@." message);
    if csv then print_string (Rrs_stats.Table.to_csv table)
    else Rrs_stats.Table.print table
  in
  Cmd.v
    (Cmd.info "compare"
       ~doc:"Compare all policies and the solver against offline references.")
    Term.(const run $ source_arg $ n_arg $ m_arg $ exact $ csv_arg)

(* ---- sweep ---- *)

let sweep_cmd =
  let factors =
    Arg.(
      value
      & opt (list int) [ 1; 2; 4; 8; 16 ]
      & info [ "factors" ] ~docv:"LIST" ~doc:"Augmentation factors n/m.")
  in
  let json =
    Arg.(
      value & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:
            (Printf.sprintf
               "Also write the sweep as a versioned BENCH json document to \
                $(docv) (schema %s; see EXPERIMENTS.md)."
               Rrs_stats.Bench_io.schema_version))
  in
  let run source m factors csv json =
    let instance = or_die (load_source source) in
    let table =
      Rrs_stats.Table.create
        ~title:(Printf.sprintf "augmentation sweep (m=%d)" m)
        ~columns:[ "n/m"; "n"; "cost"; "reconfig"; "drops"; "ratio" ]
    in
    let bench =
      Option.map
        (fun path ->
          let b =
            Rrs_stats.Bench_io.create
              ~tag:(Rrs_stats.Bench_io.tag_of_path path)
          in
          Rrs_stats.Bench_io.start_experiment b ~id:"sweep"
            ~claim:
              (Printf.sprintf "augmentation sweep of %s (m=%d)"
                 instance.Rrs_sim.Instance.name m);
          (b, path))
        json
    in
    List.iter
      (fun (factor, result) ->
        match result with
        | Ok (row : Rrs_stats.Experiment.row) ->
            Option.iter
              (fun (b, _) ->
                Rrs_stats.Bench_io.record b ~policy:row.algorithm
                  ~workload:instance.Rrs_sim.Instance.name ~n:row.n
                  ~delta:instance.Rrs_sim.Instance.delta ~cost:row.cost
                  ~reconfig_count:row.reconfig_count
                  ~drop_count:row.drop_count ())
              bench;
            Rrs_stats.Table.add_row table
              [
                Rrs_stats.Table.cell_int factor;
                Rrs_stats.Table.cell_int row.n;
                Rrs_stats.Table.cell_int row.cost;
                Rrs_stats.Table.cell_int row.reconfig_count;
                Rrs_stats.Table.cell_int row.drop_count;
                Rrs_stats.Table.cell_ratio row.ratio;
              ]
        | Error message ->
            Rrs_stats.Table.add_row table
              [ Rrs_stats.Table.cell_int factor; "-"; "-"; "-"; "-"; message ])
      (Rrs_stats.Experiment.sweep_augmentation ~m ~factors instance);
    if csv then print_string (Rrs_stats.Table.to_csv table)
    else Rrs_stats.Table.print table;
    Option.iter
      (fun (b, path) ->
        Rrs_stats.Bench_io.write b ~path;
        Format.eprintf "wrote %s@." path)
      bench
  in
  Cmd.v
    (Cmd.info "sweep" ~doc:"Solver cost across resource-augmentation factors.")
    Term.(const run $ source_arg $ m_arg $ factors $ csv_arg $ json)

(* ---- faults ---- *)

let faults_cmd =
  let gen =
    let seed =
      Arg.(value & opt int 0 & info [ "seed" ] ~docv:"S" ~doc:"Generator seed.")
    in
    let horizon =
      Arg.(
        value & opt int 256
        & info [ "horizon" ] ~docv:"T" ~doc:"Rounds the plan covers.")
    in
    let density =
      Arg.(
        value & opt float 0.1
        & info [ "crash-density" ] ~docv:"P"
            ~doc:"Stationary offline fraction per location, in [0, 1).")
    in
    let mean_outage =
      Arg.(
        value & opt int 8
        & info [ "mean-outage" ] ~docv:"R"
            ~doc:"Mean crash window length in rounds.")
    in
    let fail_rate =
      Arg.(
        value & opt float 0.0
        & info [ "reconfig-fail-rate" ] ~docv:"P"
            ~doc:
              "Per (round, location) probability that reconfigurations \
               there fail (pay delta, no effect).")
    in
    let output =
      Arg.(
        value & opt (some string) None
        & info [ "o"; "output" ] ~docv:"FILE"
            ~doc:"Write the plan to $(docv) (default: stdout).")
    in
    let run () n seed horizon density mean_outage fail_rate output =
      let plan =
        try
          Rrs_workload.Fault_gen.random ~seed ~n ~horizon
            ~crash_density:density ~mean_outage ~reconfig_fail_rate:fail_rate
            ()
        with Invalid_argument message ->
          Format.eprintf "error: %s@." message;
          exit 1
      in
      match output with
      | Some path ->
          Rrs_sim.Fault.save plan ~path;
          Format.printf "%a@.wrote %s@." Rrs_sim.Fault.pp_describe plan path
      | None -> print_string (Rrs_sim.Fault.to_string plan)
    in
    Cmd.v
      (Cmd.info "gen"
         ~doc:
           "Generate a seeded random fault plan (rrs-faults/1 JSONL): \
            geometric crash/repair phases per location plus optional \
            reconfiguration failures.")
      Term.(
        const run $ verbose_arg $ n_arg $ seed $ horizon $ density
        $ mean_outage $ fail_rate $ output)
  in
  let describe =
    let file_arg =
      Arg.(
        required & pos 0 (some string) None
        & info [] ~docv:"PLAN" ~doc:"An rrs-faults/1 plan file.")
    in
    let run file =
      let plan = or_die (Rrs_sim.Fault.load ~path:file) in
      Format.printf "%a@." Rrs_sim.Fault.pp_describe plan
    in
    Cmd.v
      (Cmd.info "describe"
         ~doc:"Print every fault of a plan in human-readable form.")
      Term.(const run $ file_arg)
  in
  Cmd.group
    (Cmd.info "faults"
       ~doc:
         "Generate and inspect deterministic fault plans for 'rrs trace-run \
          --faults'.")
    [ gen; describe ]

(* ---- weighted (companion problem) ---- *)

let weighted_cmd =
  let costs =
    Arg.(
      value & opt (some (list int)) None
      & info [ "costs" ] ~docv:"LIST"
          ~doc:"Per-color drop costs (comma separated, one per color).")
  in
  let precious =
    Arg.(
      value & opt int 0
      & info [ "precious" ] ~docv:"K"
          ~doc:"Give the first $(docv) colors the --precious-cost (ignored \
                with --costs).")
  in
  let precious_cost =
    Arg.(
      value & opt int 10
      & info [ "precious-cost" ] ~docv:"C" ~doc:"Drop cost of precious colors.")
  in
  let run source n costs precious precious_cost csv =
    let weighted =
      if String.length source > 0 && source.[0] = '@' then
        let path = String.sub source 1 (String.length source - 1) in
        or_die (Rrs_uniform.Weighted_trace.load ~path)
      else
        let instance = or_die (load_source source) in
        let num_colors = Rrs_sim.Instance.num_colors instance in
        let drop_costs =
          match costs with
          | Some list ->
              if List.length list <> num_colors then begin
                Format.eprintf "error: %d costs for %d colors@."
                  (List.length list) num_colors;
                exit 1
              end;
              Array.of_list list
          | None ->
              Array.init num_colors (fun c ->
                  if c < precious then precious_cost else 1)
        in
        or_die (Rrs_uniform.Weighted.make ~instance ~drop_costs)
    in
    if not csv then begin
      Format.printf "%a@." Rrs_sim.Instance.pp_summary
        weighted.Rrs_uniform.Weighted.instance;
      Format.printf "weighted lower bound: %d@."
        (Rrs_uniform.Weighted.lower_bound weighted)
    end;
    let table =
      Rrs_stats.Table.create
        ~title:(Printf.sprintf "weighted comparison (n=%d)" n)
        ~columns:[ "algorithm"; "weighted cost" ]
    in
    let policies =
      ( "landlord",
        Rrs_uniform.Landlord.policy
          ~drop_costs:weighted.Rrs_uniform.Weighted.drop_costs )
      :: Rrs_stats.Experiment.standard_policies
    in
    List.iter
      (fun (name, policy) ->
        let cost = Rrs_uniform.Weighted.run_policy ~n ~policy weighted in
        Rrs_stats.Table.add_row table [ name; Rrs_stats.Table.cell_int cost ])
      policies;
    if csv then print_string (Rrs_stats.Table.to_csv table)
    else Rrs_stats.Table.print table
  in
  Cmd.v
    (Cmd.info "weighted"
       ~doc:
         "Companion problem [delta | c_l | D | D]: compare the weight-aware \
          Landlord policy against the weight-blind algorithms.")
    Term.(
      const run $ source_arg $ n_arg $ costs $ precious $ precious_cost $ csv_arg)

(* ---- serve / client ---- *)

(* HOST:PORT split at the last ':', an empty HOST meaning 127.0.0.1;
   [None] when [text] does not end in ':<integer>'. *)
let host_port text =
  match String.rindex_opt text ':' with
  | None -> None
  | Some colon -> (
      match
        int_of_string_opt
          (String.sub text (colon + 1) (String.length text - colon - 1))
      with
      | None -> None
      | Some port when port < 0 ->
          Some (Error (Printf.sprintf "bad port in %S" text))
      | Some port ->
          let host = String.sub text 0 colon in
          let host = if host = "" then "127.0.0.1" else host in
          Some (Ok (Rrs_server.Server.Tcp (host, port))))

let address_of_args socket tcp =
  match (socket, tcp) with
  | Some path, None -> Ok (Rrs_server.Server.Unix_socket path)
  | None, Some hostport -> (
      match host_port hostport with
      | Some address -> address
      | None ->
          Error (Printf.sprintf "expected --tcp HOST:PORT, got %S" hostport))
  | Some _, Some _ -> Error "--socket and --tcp are mutually exclusive"
  | None, None -> Error "one of --socket PATH or --tcp HOST:PORT is required"

let socket_arg =
  Arg.(
    value & opt (some string) None
    & info [ "socket" ] ~docv:"PATH" ~doc:"Listen/connect on a Unix socket.")

let tcp_arg =
  Arg.(
    value & opt (some string) None
    & info [ "tcp" ] ~docv:"HOST:PORT" ~doc:"Listen/connect over TCP.")

let wire_arg ~doc = Arg.(value & opt int 0 & info [ "wire" ] ~docv:"1|2" ~doc)

let check_wire ~default = function
  | 0 -> Ok default
  | (1 | 2) as wire -> Ok wire
  | wire -> Error (Printf.sprintf "unsupported --wire %d (want 1 or 2)" wire)

(* A metrics/admin address: HOST:PORT when the text ends in a :port,
   otherwise a Unix socket path. *)
let parse_aux_address text =
  match host_port text with
  | Some address -> address
  | None -> Ok (Rrs_server.Server.Unix_socket text)

let log_level_arg =
  Arg.(
    value & opt string "info"
    & info [ "log-level" ] ~docv:"LEVEL"
        ~doc:
          "Server log threshold: debug, info, warn or error. Records are \
           single key=value lines on stderr.")

(* Apply --log-level; an unknown level exits 1. *)
let set_log_level text =
  match Rrs_server.Slog.level_of_string text with
  | Some level -> Rrs_server.Slog.set_level level
  | None ->
      Format.eprintf
        "error: unknown --log-level %S (want debug, info, warn or error)@."
        text;
      exit 1

let serve_cmd =
  let snap_dir =
    Arg.(
      value & opt (some string) None
      & info [ "snap-dir" ] ~docv:"DIR"
          ~doc:
            "Directory for graceful-drain snapshots; sessions found there \
             at startup are restored (rrs-sess/1).")
  in
  let trace_dir =
    Arg.(
      value & opt (some string) None
      & info [ "trace-dir" ] ~docv:"DIR"
          ~doc:"Stream each session's rrs-events/2 JSONL to $(docv).")
  in
  let queue_limit =
    Arg.(
      value & opt int 0
      & info [ "queue-limit" ] ~docv:"JOBS"
          ~doc:
            "Default per-session admission bound on fed-but-unstepped jobs \
             (0 = built-in default). Feeds beyond it are answered with a \
             'shed' frame.")
  in
  let no_restore =
    Arg.(
      value & flag
      & info [ "no-restore" ] ~doc:"Do not restore snapshots from --snap-dir.")
  in
  let wire =
    wire_arg
      ~doc:
        "Highest wire version to negotiate (default 2). With --wire 1 the \
         server refuses rrs-wire/2 hellos."
  in
  let checkpoint_every =
    Arg.(
      value & opt int 0
      & info [ "checkpoint-every" ] ~docv:"ROUNDS"
          ~doc:
            "Session checkpoint interval (0 = built-in default, 256). \
             Sessions snapshot as rrs-snap/2: each checkpoint materializes \
             the session's state, and a snapshot embeds only the arrivals \
             since the last one, so snapshot size and restore time stay \
             bounded however long the session runs. Restored rrs-snap/1 \
             files are upgraded.")
  in
  let max_reply =
    Arg.(
      value & opt int 0
      & info [ "max-reply" ] ~docv:"BYTES"
          ~doc:
            "Reply frame size cap (0 = the wire limit). Oversize replies — \
             an inline snapshot of a deep session — are answered with an \
             error naming the limit instead of an un-receivable frame.")
  in
  let metrics =
    Arg.(
      value & opt (some string) None
      & info [ "metrics" ] ~docv:"ADDR"
          ~doc:
            "Serve Prometheus/OpenMetrics text on $(docv) (HOST:PORT or a \
             Unix socket path), one scrape per connection. Metrics are \
             always collected; this only adds the endpoint.")
  in
  let slow_us =
    Arg.(
      value & opt int 0
      & info [ "slow-us" ] ~docv:"MICROSECONDS"
          ~doc:
            "Slow-request log threshold (0 = built-in default, 10000). \
             Requests at or over it enter the slow log served by the \
             'metrics' wire request and 'rrs top'.")
  in
  let slow_log =
    Arg.(
      value & opt int 0
      & info [ "slow-log" ] ~docv:"ENTRIES"
          ~doc:"Slow-request ring capacity (0 = built-in default, 64).")
  in
  let autosnap =
    Arg.(
      value & flag
      & info [ "autosnap" ]
          ~doc:
            "Write each session's snapshot into --snap-dir whenever a step \
             crosses a checkpoint boundary, so a crash (kill -9, no drain) \
             loses at most --checkpoint-every rounds per session. Requires \
             --snap-dir.")
  in
  let admission =
    Arg.(
      value & opt (some string) None
      & info [ "admission" ] ~docv:"SPEC"
          ~doc:
            "Run the admission gate against the deployment capacity in \
             $(docv) (an rrs-spec/1 file, see 'rrs analyze'): the spec's n \
             (or the analytically sized minimum) times its speed is the \
             supply budget that sessions declaring rates on open/feed are \
             priced against. See --admission-mode.")
  in
  let admission_mode =
    Arg.(
      value & opt string "enforce"
      & info [ "admission-mode" ] ~docv:"MODE"
          ~doc:
            "off, warn or enforce (default enforce, effective only with \
             --admission). enforce: over-budget or infeasible declarations \
             draw admission_rejected — an open leaves no session state — \
             and declared sessions' feeds are policed against their \
             envelope. warn: violations are admitted and logged.")
  in
  let run () socket tcp snap_dir trace_dir queue_limit no_restore wire
      checkpoint_every max_reply metrics slow_us slow_log autosnap admission
      admission_mode log_level =
    let address = or_die (address_of_args socket tcp) in
    let max_wire = or_die (check_wire ~default:2 wire) in
    set_log_level log_level;
    let metrics =
      Option.map (fun text -> or_die (parse_aux_address text)) metrics
    in
    let admission_mode =
      or_die (Rrs_server.Admission.mode_of_string admission_mode)
    in
    let admission =
      Option.map (fun path -> or_die (Rrs_workload.Demand.load path)) admission
    in
    let config =
      {
        Rrs_server.Server.address;
        snap_dir;
        trace_dir;
        queue_limit;
        max_wire;
        checkpoint_every;
        max_reply;
        metrics;
        slow_threshold_us = slow_us;
        slow_log;
        server_id = "rrs/1.0.0";
        autosnap;
        admission;
        admission_mode;
      }
    in
    match Rrs_server.Server.serve ~restore:(not no_restore) config with
    | drained -> Format.eprintf "drained %d session(s)@." drained
    | exception Failure message ->
        Format.eprintf "error: %s@." message;
        exit 1
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the rrs-wire session server until SIGTERM/SIGINT, then \
          drain every open session to --snap-dir. A restart with the same \
          --snap-dir continues the sessions where they left off. Speaks \
          rrs-wire/1 (JSON lines) by default and upgrades to rrs-wire/2 \
          (binary) per connection when the client asks for it. With \
          --metrics, serves the server's metrics as \
          Prometheus text on a second listener.")
    Term.(
      const run $ verbose_arg $ socket_arg $ tcp_arg $ snap_dir $ trace_dir
      $ queue_limit $ no_restore $ wire $ checkpoint_every
      $ max_reply $ metrics $ slow_us $ slow_log $ autosnap $ admission
      $ admission_mode $ log_level_arg)

(* The client script language, one command per line ('#' comments):
     hello
     open NAME policy=dlru delta=4 bounds=2,3,4 n=8 [speed=S] [horizon=H]
          [queue_limit=Q]
     feed NAME COLOR:COUNT [COLOR:COUNT ...]
     step NAME [ROUNDS]
     stats NAME
     snapshot NAME [FILE]   (FILE is saved inside the server's --snap-dir;
                             without FILE the document is returned inline)
     close NAME
     metrics [SLOW]    (server metrics; SLOW = slow-log entries wanted)
     raw TEXT          (send TEXT verbatim — for protocol testing)
   Each reply is printed as its JSON encoding, one per line. *)
module Client_script = struct
  let split_words line =
    String.split_on_char ' ' line |> List.filter (fun w -> w <> "")

  let kv_args words =
    List.fold_left
      (fun acc word ->
        match String.index_opt word '=' with
        | None -> acc
        | Some eq ->
            (String.sub word 0 eq,
             String.sub word (eq + 1) (String.length word - eq - 1))
            :: acc)
      [] words

  let int_kv kvs key ~default =
    match List.assoc_opt key kvs with
    | None -> Ok default
    | Some value -> (
        match int_of_string_opt value with
        | Some v -> Ok v
        | None -> Error (Printf.sprintf "%s: expected an integer, got %S" key value))

  let required_int kvs key =
    match List.assoc_opt key kvs with
    | None -> Error (Printf.sprintf "missing %s=..." key)
    | Some value -> (
        match int_of_string_opt value with
        | Some v -> Ok v
        | None -> Error (Printf.sprintf "%s: expected an integer, got %S" key value))

  let ( let* ) = Result.bind

  let parse_bounds text =
    let parts = String.split_on_char ',' text in
    let rec go acc = function
      | [] -> Ok (Array.of_list (List.rev acc))
      | part :: rest -> (
          match int_of_string_opt part with
          | Some v -> go (v :: acc) rest
          | None -> Error (Printf.sprintf "bounds: bad entry %S" part))
    in
    go [] parts

  let parse_pairs words =
    let rec go colors counts = function
      | [] -> Ok (Array.of_list (List.rev colors), Array.of_list (List.rev counts))
      | word :: rest -> (
          match String.index_opt word ':' with
          | None -> Error (Printf.sprintf "expected COLOR:COUNT, got %S" word)
          | Some colon -> (
              let c = String.sub word 0 colon in
              let k = String.sub word (colon + 1) (String.length word - colon - 1) in
              match (int_of_string_opt c, int_of_string_opt k) with
              | Some c, Some k -> go (c :: colors) (k :: counts) rest
              | _ -> Error (Printf.sprintf "expected COLOR:COUNT, got %S" word)))
    in
    go [] [] words

  (* Optional declared-envelope kvs on open/feed:
     rates=1,0,2 rate_den=2 [bursts=0,0,4]. *)
  let parse_decl kvs =
    match List.assoc_opt "rates" kvs with
    | None -> (
        match List.assoc_opt "rate_den" kvs with
        | Some _ -> Error "rate_den=... without rates=..."
        | None -> Ok None)
    | Some rates ->
        let* d_rates = parse_bounds rates in
        let* d_den = int_kv kvs "rate_den" ~default:1 in
        let* d_bursts =
          match List.assoc_opt "bursts" kvs with
          | None -> Ok [||]
          | Some b -> parse_bounds b
        in
        Ok (Some { Rrs_server.Wire.d_rates; d_den; d_bursts })

  (* One line -> either a frame to send or a raw payload. *)
  type action = Send of Rrs_server.Wire.frame | Raw of string | Skip

  let parse line =
    let line = String.trim line in
    if line = "" || line.[0] = '#' then Ok Skip
    else
      match split_words line with
      | [] -> Ok Skip
      | "hello" :: _ ->
          Ok (Send (Rrs_server.Wire.Hello { client_version = Rrs_server.Wire.version }))
      | "raw" :: _ ->
          (* everything after the first space, verbatim *)
          let payload =
            match String.index_opt line ' ' with
            | None -> ""
            | Some sp -> String.sub line (sp + 1) (String.length line - sp - 1)
          in
          Ok (Raw payload)
      | "open" :: session :: rest ->
          let kvs = kv_args rest in
          let* policy =
            match List.assoc_opt "policy" kvs with
            | Some p -> Ok p
            | None -> Error "missing policy=..."
          in
          let* delta = required_int kvs "delta" in
          let* n = required_int kvs "n" in
          let* bounds =
            match List.assoc_opt "bounds" kvs with
            | Some b -> parse_bounds b
            | None -> Error "missing bounds=..."
          in
          let* speed = int_kv kvs "speed" ~default:1 in
          let* horizon = int_kv kvs "horizon" ~default:0 in
          let* queue_limit = int_kv kvs "queue_limit" ~default:0 in
          let* decl = parse_decl kvs in
          Ok
            (Send
               (Rrs_server.Wire.Open
                  { session; policy; delta; bounds; n; speed; horizon;
                    queue_limit; decl }))
      | "feed" :: session :: rest ->
          (* KEY=VALUE words are a (re)declaration; the rest are pairs. *)
          let pairs, kv_words =
            List.partition (fun w -> not (String.contains w '=')) rest
          in
          let* colors, counts = parse_pairs pairs in
          let* decl = parse_decl (kv_args kv_words) in
          Ok (Send (Rrs_server.Wire.Feed { session; colors; counts; decl }))
      | "step" :: session :: rest ->
          let* rounds =
            match rest with
            | [] -> Ok 1
            | [ k ] -> (
                match int_of_string_opt k with
                | Some k -> Ok k
                | None -> Error (Printf.sprintf "step: bad round count %S" k))
            | _ -> Error "step: too many arguments"
          in
          Ok (Send (Rrs_server.Wire.Step { session; rounds }))
      | [ "stats"; session ] -> Ok (Send (Rrs_server.Wire.Stats { session }))
      | "snapshot" :: session :: rest ->
          let* path =
            match rest with
            | [] -> Ok None
            | [ path ] -> Ok (Some path)
            | _ -> Error "snapshot: too many arguments"
          in
          Ok (Send (Rrs_server.Wire.Snapshot { session; path }))
      | [ "close"; session ] -> Ok (Send (Rrs_server.Wire.Close { session }))
      | "metrics" :: rest ->
          let* slow =
            match rest with
            | [] -> Ok 0
            | [ k ] -> (
                match int_of_string_opt k with
                | Some k -> Ok k
                | None ->
                    Error (Printf.sprintf "metrics: bad slow count %S" k))
            | _ -> Error "metrics: too many arguments"
          in
          Ok (Send (Rrs_server.Wire.Metrics { slow }))
      | verb :: _ -> Error (Printf.sprintf "unknown command %S" verb)
end

let client_cmd =
  let script_arg =
    Arg.(
      value & pos 0 string "-"
      & info [] ~docv:"SCRIPT"
          ~doc:"Command script ('-' = standard input), one command per line.")
  in
  let wire =
    wire_arg
      ~doc:
        "Wire version to negotiate at connect (default 1). With --wire 2 \
         the session upgrades to the binary framing before the script runs."
  in
  let timeout_ms =
    Arg.(
      value & opt int 0
      & info [ "timeout-ms" ] ~docv:"MS"
          ~doc:
            "Per-call deadline: a reply not received within $(docv) fails \
             the command with a clean error instead of blocking (0 = no \
             deadline). Also bounds the connect itself.")
  in
  let retries =
    Arg.(
      value & opt int 0
      & info [ "retries" ] ~docv:"K"
          ~doc:
            "Retry failed calls up to $(docv) times with jittered \
             exponential backoff. Only requests whose replay is safe \
             (hello/stats/metrics) are retried after bytes were written; \
             feed/step and the other mutating commands are retried only \
             when the connection attempt itself failed.")
  in
  let run () socket tcp script wire timeout_ms retries =
    let address = or_die (address_of_args socket tcp) in
    let wire = or_die (check_wire ~default:1 wire) in
    if retries < 0 then begin
      Format.eprintf "error: negative --retries %d@." retries;
      exit 1
    end;
    let channel = if script = "-" then stdin else open_in script in
    let timeout_ms = if timeout_ms > 0 then Some timeout_ms else None in
    let endpoint =
      Rrs_server.Client.Endpoint.create ?timeout_ms
        ~retry:(Rrs_server.Client.retry_policy ~attempts:(retries + 1) ())
        ~wire address
    in
    (* Satellite contract for every CLI entry: a dead or unresolvable
       address is a one-line "cannot connect: ..." and exit 1. *)
    (match Rrs_server.Client.Endpoint.connection endpoint with
    | Ok _ -> ()
    | Error message ->
        Format.eprintf "error: %s@." message;
        exit 1);
    let failures = ref 0 in
    (* [raw] exists to poke the protocol with malformed input, so an
       [error] reply to it is the expected outcome, not a failure. *)
    let print_result ~error_expected = function
      | Ok frame ->
          print_endline (Rrs_server.Wire.encode frame);
          (match frame with
          | Rrs_server.Wire.Error_frame _ when not error_expected ->
              incr failures
          | _ -> ())
      | Error message ->
          Format.eprintf "error: %s@." message;
          incr failures
    in
    let connection_wire () =
      match Rrs_server.Client.Endpoint.connection endpoint with
      | Ok c -> Rrs_server.Client.wire_version c
      | Error _ -> wire
    in
    let rec loop number =
      match input_line channel with
      | exception End_of_file -> ()
      | line ->
          (match Client_script.parse line with
          | Ok Client_script.Skip -> ()
          | Ok (Client_script.Send frame) ->
              (* [hello] re-states the version already in effect so it
                 never downgrades a negotiated /2 connection. *)
              let frame =
                match frame with
                | Rrs_server.Wire.Hello _ when connection_wire () = 2 ->
                    Rrs_server.Wire.Hello
                      { client_version = Rrs_server.Wire.version2 }
                | frame -> frame
              in
              print_result ~error_expected:false
                (Rrs_server.Client.Endpoint.call endpoint frame)
          | Ok (Client_script.Raw payload) ->
              (* Raw lines go out on the endpoint's live connection;
                 write failures are clean one-line errors like
                 everything else. *)
              (match Rrs_server.Client.Endpoint.connection endpoint with
              | Error message ->
                  Format.eprintf "error: %s@." message;
                  incr failures
              | Ok c ->
                  (match Rrs_server.Client.send_raw c payload with
                  | () ->
                      print_result ~error_expected:true
                        (Rrs_server.Client.read_reply ?deadline_ms:timeout_ms c)
                  | exception Sys_error message ->
                      Format.eprintf "error: connection lost: %s@." message;
                      incr failures))
          | Error message ->
              Format.eprintf "%s:%d: %s@." script number message;
              incr failures);
          loop (number + 1)
    in
    loop 1;
    Rrs_server.Client.Endpoint.close endpoint;
    if script <> "-" then close_in channel;
    if !failures > 0 then exit 2
  in
  Cmd.v
    (Cmd.info "client"
       ~doc:
         "Drive an rrs serve instance (or an rrs route front) from a \
          command script: open named sessions, feed arrivals, step rounds, \
          query stats, snapshot and close. Replies are printed as \
          rrs-wire/1 JSON, one per line (even when the connection itself \
          runs the /2 binary framing); exits 2 if any command failed. \
          --timeout-ms bounds every call; --retries adds bounded \
          jittered-backoff retry for replay-safe requests.")
    Term.(
      const run $ verbose_arg $ socket_arg $ tcp_arg $ script_arg $ wire
      $ timeout_ms $ retries)

(* ---- analyze: capacity analysis over an rrs-spec/1 file ---- *)

let analyze_cmd =
  let spec_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"SPEC"
          ~doc:
            "An rrs-spec/1 workload spec file: a header line with delta, \
             speed, colors and optionally a deployment size n, then one \
             line per color with its delay bound, token-bucket rate \
             (rate_num/rate_den jobs per round) and burst.")
  in
  let n_opt =
    Arg.(
      value & opt (some int) None
      & info [ "n" ] ~docv:"N"
          ~doc:
            "Verify this deployment size (overrides the spec's n). With \
             neither, analyze sizes the minimal feasible n instead.")
  in
  let policy =
    Arg.(
      value & opt string "seq-edf"
      & info [ "policy" ] ~docv:"POLICY"
          ~doc:
            "Policy for the simulation cross-check and --probe. The \
             default seq-edf reference caches distinct colors in all n \
             locations, matching the dedicated-allocation supply model; \
             the Section-3 online policies (dlru, edf, dlru-edf) use only \
             n/2 and need roughly twice the analytic minimum.")
  in
  let sim_rounds =
    Arg.(
      value & opt int 400
      & info [ "sim-rounds" ] ~docv:"R"
          ~doc:"Rounds of the simulation cross-check.")
  in
  let no_sim =
    Arg.(
      value & flag
      & info [ "no-sim" ] ~doc:"Skip the simulation cross-check.")
  in
  let calibrate =
    Arg.(
      value & opt (some string) None
      & info [ "calibrate" ] ~docv:"EVENTS"
          ~doc:
            "Fit empirical per-color supply curves (sustained rate and \
             startup delay) from an rrs-events/1 or /2 stream file and \
             print them alongside the analytic report.")
  in
  let probe =
    Arg.(
      value & flag
      & info [ "probe" ]
          ~doc:
            "Calibrate from a short simulated probe run of the spec at \
             the chosen n (empirical supply as --calibrate, no stream \
             file needed).")
  in
  let run () spec_path n_opt policy sim_rounds no_sim calibrate probe =
    let module C = Rrs_analysis.Capacity in
    let module Cal = Rrs_analysis.Calibrate in
    let spec = or_die (Rrs_workload.Demand.load spec_path) in
    let target =
      match n_opt with Some n -> Some n | None -> spec.Rrs_workload.Demand.n
    in
    (* fit = the analytic verdict; n/allocation feed the report. *)
    let n, allocation, fit =
      match target with
      | Some n -> (
          match C.check ~n spec with
          | C.Fits { allocation; spare } ->
              Format.printf "%a@." C.pp_report (C.report ~n ~allocation spec);
              Format.printf "verdict fit n=%d required=%d spare=%d@." n
                (n - spare) spare;
              (n, Some allocation, true)
          | C.Overcommitted { allocation; required; available; binding } ->
              Format.printf "%a@." C.pp_report (C.report ~n ~allocation spec);
              Format.printf
                "verdict overcommitted n=%d required=%d binding_color=%d@."
                available required binding;
              (n, Some allocation, false)
          | C.Unsatisfiable { color; reason } ->
              Format.printf "verdict unsatisfiable color=%d reason=%S@." color
                reason;
              (n, None, false))
      | None -> (
          match C.size spec with
          | Ok (n, allocation) ->
              Format.printf "%a@." C.pp_report (C.report ~n ~allocation spec);
              Format.printf "verdict sized n=%d@." n;
              (n, Some allocation, true)
          | Error reason ->
              Format.printf "verdict unsatisfiable reason=%S@." reason;
              (0, None, false))
    in
    if (not no_sim) && allocation <> None && n > 0 then begin
      let sim = or_die (C.simulate ~policy ~rounds:sim_rounds ~n spec) in
      Format.printf "sim policy=%s rounds=%d jobs=%d execs=%d drops=%d@."
        policy sim.C.sim_rounds sim.C.sim_jobs sim.C.sim_execs sim.C.sim_drops;
      if fit && sim.C.sim_drops > 0 then
        Format.printf
          "warning: analytically feasible but the %s simulation dropped %d \
           job(s) — the Section-3 online policies cache only n/2 colors \
           (resource augmentation) and need roughly twice the analytic \
           minimum; seq-edf realizes the dedicated-allocation model@."
          policy sim.C.sim_drops
    end;
    Option.iter
      (fun path -> Format.printf "%a@." Cal.pp (or_die (Cal.of_file path)))
      calibrate;
    if probe && n > 0 then
      Format.printf "%a@." Cal.pp
        (or_die (Cal.probe ~policy ~n spec));
    if not fit then exit 1
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:
         "Capacity analysis of a declared workload (rrs-spec/1): verify a \
          deployment size or size the minimal one via the demand-bound vs \
          supply-bound check, print the per-color capacity report with \
          headroom, cross-validate by simulation, and optionally fit \
          empirical supply curves from an event stream (--calibrate) or a \
          probe run (--probe). Exits 1 when the workload does not fit.")
    Term.(
      const run $ verbose_arg $ spec_arg $ n_opt $ policy $ sim_rounds
      $ no_sim $ calibrate $ probe)

(* ---- top: a refreshing live view over the 'metrics' wire request ---- *)

let top_cmd =
  let interval =
    Arg.(
      value & opt float 1.0
      & info [ "interval" ] ~docv:"SECONDS" ~doc:"Seconds between refreshes.")
  in
  let count =
    Arg.(
      value & opt int 0
      & info [ "count" ] ~docv:"K"
          ~doc:"Stop after $(docv) refreshes (0 = until interrupted).")
  in
  let slow =
    Arg.(
      value & opt int 8
      & info [ "slow" ] ~docv:"K" ~doc:"Slow-log entries to show.")
  in
  let wire =
    wire_arg ~doc:"Wire version to negotiate at connect (default 1)."
  in
  let timeout_ms =
    Arg.(
      value & opt int 0
      & info [ "timeout-ms" ] ~docv:"MS"
          ~doc:
            "Bound the connect and every metrics poll by $(docv); an \
             unresponsive server fails the command instead of freezing \
             the display (0 = no deadline).")
  in
  let module Json = Rrs_sim.Event_sink.Json in
  let run () socket tcp interval count slow wire timeout_ms =
    let address = or_die (address_of_args socket tcp) in
    let wire = or_die (check_wire ~default:1 wire) in
    let interval = if interval > 0.01 then interval else 0.01 in
    let timeout_ms = if timeout_ms > 0 then Some timeout_ms else None in
    let client =
      match Rrs_server.Client.try_connect ?timeout_ms address with
      | Ok client -> client
      | Error message ->
          Format.eprintf "error: %s@." message;
          exit 1
    in
    if wire = 2 then or_die (Rrs_server.Client.negotiate client ~wire);
    let previous = ref None in
    let rec loop remaining =
      if remaining <> 0 then begin
        match
          Rrs_server.Client.call ?deadline_ms:timeout_ms client
            (Rrs_server.Wire.Metrics { slow })
        with
        | Ok (Rrs_server.Wire.Metrics_ok { doc; slow = slow_doc }) ->
            let fields =
              try Json.parse_fields doc
              with Json.Parse_error message ->
                Format.eprintf "error: bad metrics document: %s@." message;
                exit 1
            in
            let slow_lines =
              if slow_doc = "" then []
              else String.split_on_char '\n' slow_doc
            in
            let sample =
              { Rrs_server.Top_view.at = Rrs_obs.Clock.now_s (); fields }
            in
            (* Clear and repaint only when this is a refreshing view. *)
            if count <> 1 then print_string "\027[2J\027[H";
            print_string
              (Rrs_server.Top_view.render ~previous:!previous sample
                 ~slow:slow_lines);
            flush stdout;
            previous := Some sample;
            if remaining <> 1 then begin
              Unix.sleepf interval;
              loop (remaining - 1)
            end
        | Ok (Rrs_server.Wire.Error_frame { message }) ->
            Format.eprintf "error: %s@." message;
            exit 1
        | Ok frame ->
            Format.eprintf "error: unexpected reply: %s@."
              (Rrs_server.Wire.encode frame);
            exit 1
        | Error message ->
            Format.eprintf "error: %s@." message;
            exit 1
      end
    in
    loop (if count <= 0 then -1 else count);
    Rrs_server.Client.close client
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:
         "Live view of an rrs serve instance: rounds/s and requests/s, \
          per-frame-type latency percentiles (server-side), step \
          timings, shed counts and the slow-request log — polled over \
          the 'metrics' wire request.")
    Term.(
      const run $ verbose_arg $ socket_arg $ tcp_arg $ interval $ count $ slow
      $ wire $ timeout_ms)

(* The router's flags default to [Router.default_config]: only a given
   value overrides it, and a value below 1 exits 1. *)
let router_defaults =
  Rrs_server.Router.default_config
    ~address:(Rrs_server.Server.Unix_socket "") ~shards:[]

let router_flag name ~docv doc =
  Arg.(value & opt (some int) None & info [ name ] ~docv ~doc)

(* [config] with the router flags given; a value below 1 exits 1. *)
let with_router_flags ?connect_timeout_ms ~timeout_ms ~fail_threshold
    ~probe_interval_ms config =
  let pick name given default =
    match given with
    | None -> default
    | Some v when v >= 1 -> v
    | Some v ->
        Format.eprintf "error: --%s must be at least 1 (got %d)@." name v;
        exit 1
  in
  {
    config with
    Rrs_server.Router.timeout_ms =
      pick "timeout-ms" timeout_ms config.Rrs_server.Router.timeout_ms;
    connect_timeout_ms =
      pick "connect-timeout-ms" connect_timeout_ms config.connect_timeout_ms;
    fail_threshold = pick "fail-threshold" fail_threshold config.fail_threshold;
    probe_interval_ms =
      pick "probe-interval-ms" probe_interval_ms config.probe_interval_ms;
  }

let router_timeout_ms =
  router_flag "timeout-ms" ~docv:"MS"
    (Printf.sprintf
       "Per-backend-call deadline (default %d). A shard not answering \
        within $(docv) counts as a failure; the client gets a clean error, \
        never a hang."
       router_defaults.timeout_ms)

let router_fail_threshold =
  router_flag "fail-threshold" ~docv:"K"
    (Printf.sprintf
       "Consecutive backend failures that trip a shard to 'down' (default \
        %d). Down shards are refused immediately and re-admitted by \
        background hello probes."
       router_defaults.fail_threshold)

let router_probe_interval_ms =
  router_flag "probe-interval-ms" ~docv:"MS"
    (Printf.sprintf
       "First re-admission probe delay after a trip (default %d); later \
        probes back off exponentially."
       router_defaults.probe_interval_ms)

let route_cmd =
  let shards =
    Arg.(
      value & opt_all string []
      & info [ "shard" ] ~docv:"ADDR"
          ~doc:
            "Backend shard address (HOST:PORT or a Unix socket path). \
             Repeat once per shard; the literal $(docv) text is the \
             shard's stable ring label, so keep spellings identical \
             across restarts.")
  in
  let wire =
    wire_arg
      ~doc:
        "Highest wire version negotiable on the front (default 2). With \
         --wire 1 the router refuses rrs-wire/2 hellos."
  in
  let connect_timeout_ms =
    router_flag "connect-timeout-ms" ~docv:"MS"
      (Printf.sprintf "Backend connect budget (default %d)."
         router_defaults.connect_timeout_ms)
  in
  let replicas =
    Arg.(
      value & opt int 0
      & info [ "replicas" ] ~docv:"K"
          ~doc:
            "Ring virtual nodes per shard (0 = built-in default, 128).")
  in
  let run () socket tcp shards wire timeout_ms
      connect_timeout_ms fail_threshold probe_interval_ms replicas log_level =
    let address = or_die (address_of_args socket tcp) in
    let max_wire = or_die (check_wire ~default:2 wire) in
    set_log_level log_level;
    if shards = [] then begin
      Format.eprintf "error: no shards (pass --shard at least once)@.";
      exit 1
    end;
    let shards =
      List.map
        (fun text ->
          {
            Rrs_server.Router.shard_label = text;
            shard_address = or_die (parse_aux_address text);
          })
        shards
    in
    let config =
      with_router_flags ?connect_timeout_ms ~timeout_ms ~fail_threshold
        ~probe_interval_ms
        {
          (Rrs_server.Router.default_config ~address ~shards) with
          Rrs_server.Router.max_wire;
          replicas;
        }
    in
    match Rrs_server.Router.serve config with
    | () -> ()
    | exception Failure message ->
        Format.eprintf "error: %s@." message;
        exit 1
  in
  Cmd.v
    (Cmd.info "route"
       ~doc:
         "Run the sharding router until SIGTERM/SIGINT: speak both \
          rrs-wire framings on the front and multiplex sessions to the \
          --shard backends by consistent hashing on session name. A dead \
          shard is detected by connect failures and call deadlines, \
          refused with clean errors while down (the router never hangs a \
          client), and re-admitted automatically once its hello answers \
          again.")
    Term.(
      const run $ verbose_arg $ socket_arg $ tcp_arg $ shards $ wire
      $ router_timeout_ms $ connect_timeout_ms
      $ router_fail_threshold $ router_probe_interval_ms $ replicas
      $ log_level_arg)

let shard_set_cmd =
  let shards =
    Arg.(
      value & opt int 2
      & info [ "shards" ] ~docv:"N" ~doc:"Number of shard processes.")
  in
  let dir =
    Arg.(
      required
      & opt (some string) None
      & info [ "dir" ] ~docv:"DIR"
          ~doc:
            "State directory: per-shard Unix sockets, snapshot \
             directories and pidfiles live under $(docv). Reusing the \
             same $(docv) across restarts continues the sessions.")
  in
  let checkpoint_every =
    Arg.(
      value & opt int 0
      & info [ "checkpoint-every" ] ~docv:"ROUNDS"
          ~doc:
            "Per-shard checkpoint interval; with autosnap (always on \
             here) a kill -9 loses at most $(docv) rounds per session \
             (0 = the server's built-in default).")
  in
  let base_backoff_ms =
    Arg.(
      value & opt int 100
      & info [ "restart-backoff-ms" ] ~docv:"MS"
          ~doc:
            "Base restart backoff: a crashed shard is respawned after \
             $(docv) * 2^streak (capped at 5s), streak reset after 10s \
             of stable uptime.")
  in
  let run () socket tcp shards dir checkpoint_every timeout_ms fail_threshold
      probe_interval_ms base_backoff_ms log_level =
    let address = or_die (address_of_args socket tcp) in
    set_log_level log_level;
    let router_config =
      with_router_flags ~timeout_ms ~fail_threshold ~probe_interval_ms
        (Rrs_server.Router.default_config ~address ~shards:[])
    in
    if shards < 1 then begin
      Format.eprintf "error: --shards must be at least 1@.";
      exit 1
    end;
    let ensure_dir path =
      try Unix.mkdir path 0o755
      with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
    in
    ensure_dir dir;
    let shard_specs =
      List.init shards (fun i ->
          let label = Printf.sprintf "shard-%d" i in
          let sock = Filename.concat dir (label ^ ".sock") in
          let snaps = Filename.concat dir (label ^ ".snaps") in
          ensure_dir snaps;
          let argv =
            Array.append
              [|
                Sys.executable_name; "serve"; "--socket"; sock; "--snap-dir";
                snaps; "--autosnap"; "--log-level"; log_level;
              |]
              (if checkpoint_every > 0 then
                 [| "--checkpoint-every"; string_of_int checkpoint_every |]
               else [||])
          in
          (label, sock, { Rrs_server.Shard.sp_label = label; sp_argv = argv }))
    in
    let write_pidfile ~label ~pid =
      let path = Filename.concat dir (label ^ ".pid") in
      let out = open_out path in
      output_string out (string_of_int pid ^ "\n");
      close_out out
    in
    let supervisor =
      Rrs_server.Shard.start ~base_backoff_ms ~on_spawn:write_pidfile
        (List.map (fun (_, _, spec) -> spec) shard_specs)
    in
    (* Wait for the shards to listen before the router opens the front
       door, so the first requests don't trip healthy shards. A shard
       that crashes meanwhile is restarted on its backoff. *)
    (match
       Rrs_server.Client.await_listening
         ~between:(fun () -> Rrs_server.Shard.poll supervisor)
         (List.map
            (fun (_, sock, _) -> Rrs_server.Server.Unix_socket sock)
            shard_specs)
     with
    | Ok () -> ()
    | Error refused ->
        List.iter
          (fun (label, sock, _) ->
            Option.iter
              (Format.eprintf "error: shard %s not ready: %s@." label)
              (List.assoc_opt (Rrs_server.Server.Unix_socket sock) refused))
          shard_specs);
    let router_shards =
      List.map
        (fun (label, sock, _spec) ->
          {
            Rrs_server.Router.shard_label = label;
            shard_address = Rrs_server.Server.Unix_socket sock;
          })
        shard_specs
    in
    let config =
      { router_config with Rrs_server.Router.shards = router_shards }
    in
    let stop_requested = Atomic.make false in
    let request_stop _signal = Atomic.set stop_requested true in
    let previous_term =
      Sys.signal Sys.sigterm (Sys.Signal_handle request_stop)
    in
    let previous_int = Sys.signal Sys.sigint (Sys.Signal_handle request_stop) in
    (match Rrs_server.Router.start config with
    | router ->
        Rrs_server.Shard.run supervisor ~stop:(fun () ->
            Atomic.get stop_requested);
        Rrs_server.Slog.info ~event:"stopping" [ ("reason", "signal") ];
        Rrs_server.Router.stop router;
        Rrs_server.Shard.stop supervisor;
        Sys.set_signal Sys.sigterm previous_term;
        Sys.set_signal Sys.sigint previous_int
    | exception Failure message ->
        Rrs_server.Shard.stop supervisor;
        Format.eprintf "error: %s@." message;
        exit 1)
  in
  Cmd.v
    (Cmd.info "shard-set"
       ~doc:
         "Run a supervised shard set behind an in-process router: spawn \
          N 'rrs serve' shards (each with its own Unix socket and \
          snapshot directory under --dir, autosnap on), restart crashed \
          shards with exponential backoff, and route client sessions to \
          them by consistent hashing. A kill -9'd shard is restarted, \
          restores from its checkpoints, and is re-admitted by the \
          router's hello probe — sessions on other shards never notice.")
    Term.(
      const run $ verbose_arg $ socket_arg $ tcp_arg $ shards $ dir
      $ checkpoint_every $ router_timeout_ms $ router_fail_threshold
      $ router_probe_interval_ms $ base_backoff_ms $ log_level_arg)

let () =
  let doc = "reconfigurable resource scheduling with variable delay bounds" in
  let info = Cmd.info "rrs" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            gen_cmd; info_cmd; run_cmd; trace_run_cmd; report_cmd; compare_cmd;
            sweep_cmd; weighted_cmd; faults_cmd; serve_cmd;
            client_cmd; analyze_cmd; top_cmd; route_cmd; shard_set_cmd;
          ]))
