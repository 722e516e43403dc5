(* Tests for the QoS metrics module and the BENCH json writer. *)

module Instance = Rrs_sim.Instance
module Engine = Rrs_sim.Engine
module Schedule = Rrs_sim.Schedule
module Metrics = Rrs_stats.Metrics
module Bench_io = Rrs_stats.Bench_io
module H = Test_helpers

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let contains haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i =
    i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1))
  in
  go 0

let solve ~n i =
  match Rrs_core.Solver.solve ~n i with
  | Ok outcome -> outcome.Rrs_core.Solver.schedule
  | Error e -> Alcotest.fail e

let test_metrics_handcrafted () =
  (* Color 0: 2 jobs bound 2 at round 0, both served (latencies 0, 1).
     Color 1: 1 job bound 4, never served with delta too high... use a
     pin-free exact case: n=4 so everything runs. *)
  let i =
    Instance.make ~delta:1 ~bounds:[| 2; 4 |]
      ~arrivals:[ (0, [ (0, 2); (1, 1) ]) ]
      ()
  in
  let metrics = Metrics.of_schedule (solve ~n:8 i) in
  check "executed" 3 metrics.executed;
  check "dropped" 0 metrics.dropped;
  check "colors with traffic" 2 (List.length metrics.by_color);
  let c0 = List.find (fun (r : Metrics.per_color) -> r.color = 0) metrics.by_color in
  check "c0 offered" 2 c0.offered;
  check_bool "c0 latency within bound" true (c0.max_latency < 2);
  check_bool "mean latency sane" true
    (metrics.mean_latency >= 0.0 && metrics.mean_latency < 4.0)

let test_metrics_all_dropped () =
  (* Delta too expensive: everything drops; loss 100%, latencies 0. *)
  let i =
    Instance.make ~delta:100 ~bounds:[| 2 |] ~arrivals:[ (0, [ (0, 3) ]) ] ()
  in
  let metrics = Metrics.of_schedule (solve ~n:4 i) in
  check "executed" 0 metrics.executed;
  check "dropped" 3 metrics.dropped;
  check "p99 of nothing" 0 metrics.p99_latency;
  match metrics.by_color with
  | [ row ] -> check_bool "loss 100%" true (row.loss_rate = 1.0)
  | _ -> Alcotest.fail "expected one traffic color"

let prop_metrics_consistent =
  QCheck2.Test.make ~name:"metrics: totals match the ledger; latencies in bounds"
    ~count:40 H.gen_rate_limited (fun instance ->
      let schedule = solve ~n:8 instance in
      let metrics = Metrics.of_schedule schedule in
      metrics.executed = Schedule.exec_count schedule
      && metrics.dropped = Schedule.drop_count schedule
      && metrics.executed + metrics.dropped = Instance.total_jobs instance
      && List.for_all
           (fun (row : Metrics.per_color) ->
             row.offered = row.executed + row.dropped
             && row.max_latency < row.bound
             && row.loss_rate >= 0.0
             && row.loss_rate <= 1.0)
           metrics.by_color)

(* ---- Bench_io ---- *)

let test_tag_of_path () =
  check_string "BENCH_ prefix stripped" "pr1"
    (Bench_io.tag_of_path "results/BENCH_pr1.json");
  check_string "plain basename" "baseline"
    (Bench_io.tag_of_path "/tmp/baseline.json")

let test_json_document () =
  let b = Bench_io.create ~tag:"unit" in
  Bench_io.start_experiment b ~id:"E1" ~claim:{|quotes " and \ slashes|};
  Bench_io.record b ~policy:"dlru" ~workload:"w0" ~n:4 ~delta:3 ~cost:17
    ~reconfig_count:5 ~drop_count:2 ();
  Bench_io.record b ~policy:"edf" ~workload:"w1" ~n:8 ~delta:3 ~cost:9
    ~reconfig_count:0 ~drop_count:9 ~exec_count:42 ~wall_s:0.25 ();
  let json = Bench_io.to_string b in
  check_bool "schema version" true (contains json {|"schema": "rrs-bench/3"|});
  check_bool "tag" true (contains json {|"tag": "unit"|});
  check_bool "claim escaped" true (contains json {|quotes \" and \\ slashes|});
  check_bool "reconfig_cost = delta * reconfigs" true
    (contains json {|"reconfig_cost": 15|});
  check_bool "optional exec_count present" true
    (contains json {|"exec_count": 42|});
  check_bool "optional wall_s present" true (contains json {|"wall_s": 0.250000|});
  check_bool "totals" true
    (contains json {|"totals": {"experiments": 1, "runs": 2|})

let test_json_adhoc_experiment () =
  let b = Bench_io.create ~tag:"t" in
  Bench_io.record b ~policy:"p" ~workload:"w" ~n:1 ~delta:1 ~cost:0
    ~reconfig_count:0 ~drop_count:0 ();
  check_bool "implicit adhoc group" true
    (contains (Bench_io.to_string b) {|"id": "adhoc"|})

let quick name f = Alcotest.test_case name `Quick f
let prop p = QCheck_alcotest.to_alcotest p

let suite =
  [
    ( "stats.metrics",
      [
        quick "handcrafted profile" test_metrics_handcrafted;
        quick "all-dropped profile" test_metrics_all_dropped;
        prop prop_metrics_consistent;
      ] );
    ( "stats.bench_io",
      [
        quick "tag_of_path" test_tag_of_path;
        quick "json document" test_json_document;
        quick "adhoc experiment" test_json_adhoc_experiment;
      ] );
  ]
