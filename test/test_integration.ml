(* End-to-end integration tests: full pipelines on scenario workloads,
   experiment harness rows, augmentation sweeps, trace file round trips. *)

module Instance = Rrs_sim.Instance
module Schedule = Rrs_sim.Schedule
module Experiment = Rrs_stats.Experiment
module Summary = Rrs_stats.Summary
module Table = Rrs_stats.Table

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let test_full_run_on_datacenter () =
  let i =
    Rrs_workload.Scenarios.datacenter ~seed:5 ~services:9 ~delta:4 ~phases:2
      ~phase_length:64 ()
  in
  let reference = Experiment.reference ~m:2 i in
  check_bool "reference has a lower bound" true (reference.lower_bound >= 0);
  (match reference.greedy_upper with
  | Some upper -> check_bool "greedy >= lb" true (upper >= reference.lower_bound)
  | None -> Alcotest.fail "greedy failed");
  match Experiment.run_solver ~n:16 ~reference i with
  | Error e -> Alcotest.fail e
  | Ok row ->
      check_bool "cost accounted" true
        (row.cost = (4 * row.reconfig_count) + row.drop_count);
      check_bool "ratio computed" true (row.ratio >= 0.0)

let test_full_run_on_router () =
  let i =
    Rrs_workload.Scenarios.router ~seed:5 ~classes:8 ~delta:4 ~horizon:256
      ~utilization:0.6 ~n_ref:4 ()
  in
  let reference = Experiment.reference ~m:4 i in
  List.iter
    (fun (name, policy) ->
      let row = Experiment.run_policy ~n:32 ~reference ~policy i in
      check_bool (name ^ " ran") true (row.cost >= 0))
    Experiment.standard_policies

let test_augmentation_sweep_monotone_tendency () =
  (* More resources should never make the solver dramatically worse; we
     check the endpoints: n = 8m is at most the n = m cost plus slack. *)
  let i =
    Rrs_workload.Random_workloads.uniform ~seed:21 ~colors:10 ~delta:4
      ~bound_log_range:(1, 4) ~horizon:256 ~load:0.8 ~rate_limited:true ()
  in
  let rows = Experiment.sweep_augmentation ~m:2 ~factors:[ 1; 2; 4; 8 ] i in
  check "four rows" 4 (List.length rows);
  let cost factor =
    match List.assoc factor rows with
    | Ok (row : Experiment.row) -> row.cost
    | Error e -> Alcotest.fail e
  in
  check_bool "8x resources help vs 1x" true (cost 8 <= cost 1)

let test_experiment_reference_exact_on_tiny () =
  let i =
    Instance.make ~delta:2 ~bounds:[| 2; 2 |] ~arrivals:[ (0, [ (0, 2); (1, 2) ]) ] ()
  in
  let reference = Experiment.reference ~exact_budget:100_000 ~m:1 i in
  (match reference.exact with
  | Some opt -> check_bool "exact within bounds" true (opt >= reference.lower_bound)
  | None -> Alcotest.fail "exact expected");
  check "denominator uses exact" (Option.get reference.exact)
    (Experiment.denominator reference)

let test_trace_file_roundtrip () =
  let i =
    Rrs_workload.Random_workloads.uniform ~seed:13 ~colors:4 ~delta:3
      ~bound_log_range:(0, 3) ~horizon:64 ~load:0.7 ~rate_limited:true ()
  in
  let path = Filename.temp_file "rrs_test" ".trace" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Rrs_sim.Trace.save i ~path;
      match Rrs_sim.Trace.load ~path with
      | Error e -> Alcotest.fail e
      | Ok i' ->
          check "jobs preserved" (Instance.total_jobs i) (Instance.total_jobs i');
          (* Solving the reloaded instance gives identical cost. *)
          let cost inst =
            match Rrs_core.Solver.solve ~n:8 inst with
            | Ok o -> o.cost
            | Error e -> Alcotest.fail e
          in
          check "same cost" (cost i) (cost i'))

let test_summary_and_table () =
  let s = Summary.of_ints [ 1; 2; 3; 4 ] in
  check "count" 4 s.count;
  check_bool "mean" true (abs_float (s.mean -. 2.5) < 1e-9);
  check_bool "p50" true
    (abs_float (Summary.percentile 50.0 [ 1.0; 2.0; 3.0; 4.0 ] -. 2.0) < 1e-9);
  let t = Table.create ~title:"demo" ~columns:[ "a"; "b" ] in
  Table.add_row t [ "x"; Table.cell_int 12 ];
  Table.add_row t [ "yy"; Table.cell_ratio 1.5 ];
  let rendered = Table.to_string t in
  check_bool "renders header" true
    (String.length rendered > 0
    && String.sub rendered 0 7 = "== demo");
  match Table.add_row t [ "only-one-cell" ] with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "bad row accepted"

let test_solver_stats_surface_epochs () =
  let i =
    Rrs_workload.Random_workloads.uniform ~seed:2 ~colors:6 ~delta:3
      ~bound_log_range:(0, 3) ~horizon:64 ~load:0.8 ~rate_limited:true ()
  in
  match Rrs_core.Solver.solve ~n:8 i with
  | Error e -> Alcotest.fail e
  | Ok outcome ->
      check_bool "epoch stat exposed" true
        (List.mem_assoc "epochs" outcome.inner.stats);
      check_bool "drop split exposed" true
        (List.mem_assoc "eligible_drops" outcome.inner.stats)

let test_render_timeline () =
  let i =
    Instance.make ~delta:1 ~bounds:[| 2; 2 |]
      ~arrivals:[ (0, [ (0, 2); (1, 2) ]) ]
      ()
  in
  match Rrs_core.Solver.solve ~n:4 i with
  | Error e -> Alcotest.fail e
  | Ok outcome ->
      let rendered = Rrs_stats.Render.timeline outcome.schedule in
      let lines = String.split_on_char '\n' rendered in
      (* header + tick row + one row per resource (+ trailing empty) *)
      check "line count" (2 + 4 + 1) (List.length lines);
      check_bool "mentions resource 0" true
        (List.exists (fun l -> String.length l > 2 && String.sub l 0 2 = "r0") lines);
      check_bool "contains color letters" true
        (String.exists (fun c -> c = 'a' || c = 'b') rendered)

let test_render_sampling () =
  let i =
    Rrs_workload.Random_workloads.uniform ~seed:1 ~colors:4 ~delta:2
      ~bound_log_range:(1, 3) ~horizon:1000 ~load:0.5 ~rate_limited:true ()
  in
  match Rrs_core.Solver.solve ~n:4 i with
  | Error e -> Alcotest.fail e
  | Ok outcome ->
      let rendered = Rrs_stats.Render.timeline ~max_width:50 outcome.schedule in
      check_bool "notes sampling stride" true
        (let re = "sampled every" in
         let rec contains i =
           i + String.length re <= String.length rendered
           && (String.sub rendered i (String.length re) = re || contains (i + 1))
         in
         contains 0);
      let lines = String.split_on_char '\n' rendered in
      check_bool "resource rows within width" true
        (List.for_all
           (fun l -> String.length l <= 60)
           (List.filter
              (fun l ->
                String.length l > 1 && l.[0] = 'r' && l.[1] >= '0' && l.[1] <= '9')
              lines))

let test_table_csv () =
  let t = Table.create ~title:"csv" ~columns:[ "name"; "value" ] in
  Table.add_row t [ "plain"; "1" ];
  Table.add_row t [ "with,comma"; "quote\"inside" ];
  Alcotest.(check string)
    "csv output" "name,value\nplain,1\n\"with,comma\",\"quote\"\"inside\"\n"
    (Table.to_csv t)

let quick name f = Alcotest.test_case name `Quick f

let suite =
  [
    ( "integration",
      [
        quick "datacenter end-to-end" test_full_run_on_datacenter;
        quick "router with all policies" test_full_run_on_router;
        quick "augmentation sweep" test_augmentation_sweep_monotone_tendency;
        quick "exact reference on tiny instance" test_experiment_reference_exact_on_tiny;
        quick "trace file roundtrip" test_trace_file_roundtrip;
        quick "summary and table" test_summary_and_table;
        quick "solver surfaces instrumentation" test_solver_stats_surface_epochs;
        quick "timeline rendering" test_render_timeline;
        quick "timeline sampling" test_render_sampling;
        quick "csv export" test_table_csv;
      ] );
  ]
