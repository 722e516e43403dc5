(* Observability-layer tests: probe registry semantics, event-sink JSONL
   round trips, report reconstruction (byte-identical summaries),
   phase profiling, Instrument.super_epochs edge cases and the Trace
   atomic-save / strict-parse paths. *)

module Probe = Rrs_obs.Probe
module Profile = Rrs_obs.Profile
module Clock = Rrs_obs.Clock
module Event_sink = Rrs_sim.Event_sink
module Engine = Rrs_sim.Engine
module Ledger = Rrs_sim.Ledger
module Trace = Rrs_sim.Trace
module Instance = Rrs_sim.Instance
module Report = Rrs_stats.Report
module Instrument = Rrs_core.Instrument

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let small_instance ?(horizon = 128) ?(seed = 7) () =
  Rrs_workload.Random_workloads.uniform ~seed ~colors:6 ~delta:3
    ~bound_log_range:(0, 3) ~horizon ~load:0.9 ~rate_limited:true ()

let policy : (module Rrs_sim.Policy.POLICY) = (module Rrs_core.Policy_lru_edf)

(* ---- probes ---- *)

let test_probe_counter_gauge () =
  let registry = Probe.create_registry () in
  let c = Probe.counter registry "hits" in
  Probe.incr c;
  Probe.add c 4;
  check "counter" 5 (Probe.counter_value c);
  let g = Probe.gauge registry "depth" in
  Probe.set_gauge g 7;
  Probe.set_gauge g 3;
  check "gauge last" 3 (Probe.gauge_value g);
  check "gauge max" 7 (Probe.gauge_max g);
  (* Same name returns the same probe; a kind clash raises. *)
  let c' = Probe.counter registry "hits" in
  Probe.incr c';
  check "shared counter" 6 (Probe.counter_value c);
  (match Probe.gauge registry "hits" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "kind clash must raise");
  check "snapshot"
    (List.assoc "hits" (Probe.snapshot registry))
    6

let test_probe_disabled_costs_nothing () =
  let registry = Probe.create_registry ~enabled:false () in
  let c = Probe.counter registry "hits" in
  let g = Probe.gauge registry "depth" in
  let h = Probe.histogram registry "lat" in
  Probe.incr c;
  Probe.set_gauge g 9;
  Probe.observe h 5;
  check "counter untouched" 0 (Probe.counter_value c);
  check "gauge untouched" 0 (Probe.gauge_max g);
  check "hist untouched" 0 (Probe.snapshot_histogram h).Probe.count;
  Probe.set_enabled registry true;
  Probe.incr c;
  check "re-enabled" 1 (Probe.counter_value c)

let test_probe_histogram_percentiles () =
  let registry = Probe.create_registry () in
  let h = Probe.histogram registry ~buckets:[| 1; 2; 4; 8 |] "lat" in
  (* 1x1, 1x2, 1x3, 97x4 -> p50/p99 in the 4-bucket, max tracked. *)
  Probe.observe h 1;
  Probe.observe h 2;
  Probe.observe h 3;
  Probe.observe_n h 4 ~n:97;
  let snap = Probe.snapshot_histogram h in
  check "count" 100 snap.Probe.count;
  check "sum" (1 + 2 + 3 + (4 * 97)) snap.Probe.sum;
  check "min" 1 snap.Probe.min_value;
  check "max" 4 snap.Probe.max_value;
  check "p01" 1 (Probe.percentile snap 0.01);
  check "p02" 2 (Probe.percentile snap 0.02);
  check "p03 bucket" 4 (Probe.percentile snap 0.03);
  check "p50" 4 (Probe.percentile snap 0.50);
  check "p100" 4 (Probe.percentile snap 1.0);
  (* Overflow samples report the observed max, not a bucket bound. *)
  Probe.observe h 1000;
  let snap = Probe.snapshot_histogram h in
  check "overflow count" 1 snap.Probe.overflow;
  check "p100 overflow" 1000 (Probe.percentile snap 1.0);
  (match Probe.histogram registry ~buckets:[| 3; 3 |] "bad" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "non-increasing buckets must raise")

let test_probe_percentile_edges () =
  let registry = Probe.create_registry () in
  (* Empty histogram: every percentile is 0. *)
  let empty = Probe.histogram registry ~buckets:[| 2; 8 |] "empty" in
  let snap = Probe.snapshot_histogram empty in
  List.iter
    (fun p -> check (Printf.sprintf "empty p%g" p) 0 (Probe.percentile snap p))
    [ 0.0; 0.5; 0.999; 1.0 ];
  (* Every sample above the last bound: no bucket bound applies, so all
     percentiles report the observed max. *)
  let over = Probe.histogram registry ~buckets:[| 2; 8 |] "over" in
  Probe.observe over 100;
  Probe.observe over 900;
  let snap = Probe.snapshot_histogram over in
  check "all-overflow count" 2 snap.Probe.overflow;
  List.iter
    (fun p ->
      check (Printf.sprintf "overflow p%g" p) 900 (Probe.percentile snap p))
    [ 0.01; 0.5; 0.999; 1.0 ];
  (* One wide bucket: the bound never leaks, results clamp to the max. *)
  let one = Probe.histogram registry ~buckets:[| 1000 |] "one" in
  Probe.observe one 7;
  let snap = Probe.snapshot_histogram one in
  check "single bucket p50 clamps to max" 7 (Probe.percentile snap 0.5);
  check "single bucket p999 clamps to max" 7 (Probe.percentile snap 0.999)

let test_probe_snapshot_extended_percentiles () =
  let registry = Probe.create_registry () in
  let h = Probe.histogram registry ~buckets:[| 1; 2; 4; 8; 16 |] "lat" in
  (* 988 at 1, 10 at 8, 2 at 16: cumulative 988 / 998 / 1000, so p50 and
     p90 sit in the first bucket, p99 at 8 and p999 at 16. *)
  Probe.observe_n h 1 ~n:988;
  Probe.observe_n h 8 ~n:10;
  Probe.observe_n h 16 ~n:2;
  let snapshot = Probe.snapshot registry in
  let stat key = List.assoc key snapshot in
  check "count key" 1000 (stat "lat_count");
  check "p50 key" 1 (stat "lat_p50");
  check "p90 key" 1 (stat "lat_p90");
  check "p99 key" 8 (stat "lat_p99");
  check "p999 key" 16 (stat "lat_p999");
  check "max key" 16 (stat "lat_max")

let test_probe_merge () =
  let a = Probe.create_registry () in
  let b = Probe.create_registry () in
  Probe.add (Probe.counter a "jobs") 5;
  Probe.add (Probe.counter b "jobs") 7;
  Probe.incr (Probe.counter b "only_b");
  Probe.set_gauge (Probe.gauge a "depth") 9;
  Probe.set_gauge (Probe.gauge a "depth") 2;
  Probe.set_gauge (Probe.gauge b "depth") 4;
  let ha = Probe.histogram a ~buckets:[| 2; 8 |] "lat" in
  let hb = Probe.histogram b ~buckets:[| 2; 8 |] "lat" in
  Probe.observe ha 1;
  Probe.observe ha 100;
  Probe.observe hb 5;
  Probe.observe hb 2;
  let merged = Probe.merged [ a; b ] in
  check "counters add" 12 (Probe.counter_value (Probe.counter merged "jobs"));
  check "missing names register" 1
    (Probe.counter_value (Probe.counter merged "only_b"));
  check "gauge maxima combine" 9 (Probe.gauge_max (Probe.gauge merged "depth"));
  check "gauge values add" 6 (Probe.gauge_value (Probe.gauge merged "depth"));
  let snap =
    Probe.snapshot_histogram (Probe.histogram merged ~buckets:[| 2; 8 |] "lat")
  in
  check "hist count" 4 snap.Probe.count;
  check "hist sum" 108 snap.Probe.sum;
  check "hist min" 1 snap.Probe.min_value;
  check "hist max" 100 snap.Probe.max_value;
  check "hist overflow" 1 snap.Probe.overflow;
  check_bool "buckets add" true (snap.Probe.buckets = [| (2, 2); (8, 1) |]);
  (* Merging never mutates the source workers' registries. *)
  check "source untouched" 2 (Probe.snapshot_histogram ha).Probe.count;
  (* Same histogram name under different bounds refuses to fold. *)
  let c = Probe.create_registry () in
  ignore (Probe.histogram c ~buckets:[| 1; 2 |] "lat");
  match Probe.merge ~into:c a with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "mismatched bucket bounds must raise"

(* The cross-domain aggregation contract: a sample stream split across k
   per-worker registries and then merged is indistinguishable from one
   registry that saw every sample — counters, gauge maxima and every
   histogram bucket. *)
let prop_merge_equals_single =
  QCheck2.Test.make
    ~name:"probe: merged shards = one registry over all samples" ~count:200
    QCheck2.Gen.(pair (int_range 1 5) (small_list (int_bound 5000)))
    (fun (k, samples) ->
      let buckets = [| 1; 4; 16; 64; 256; 1024 |] in
      let shards = Array.init k (fun _ -> Probe.create_registry ()) in
      let whole = Probe.create_registry () in
      List.iteri
        (fun i sample ->
          let record registry =
            Probe.add (Probe.counter registry "total") sample;
            Probe.incr (Probe.counter registry "samples");
            Probe.set_gauge (Probe.gauge registry "last") sample;
            Probe.observe (Probe.histogram registry ~buckets "lat") sample
          in
          record shards.(i mod k);
          record whole)
        samples;
      let merged = Probe.merged (Array.to_list shards) in
      let hist registry =
        Probe.snapshot_histogram (Probe.histogram registry ~buckets "lat")
      in
      let m = hist merged and w = hist whole in
      Probe.counter_value (Probe.counter merged "total")
      = Probe.counter_value (Probe.counter whole "total")
      && Probe.counter_value (Probe.counter merged "samples")
         = List.length samples
      && Probe.gauge_max (Probe.gauge merged "last")
         = Probe.gauge_max (Probe.gauge whole "last")
      && m.Probe.count = w.Probe.count
      && m.Probe.sum = w.Probe.sum
      && m.Probe.min_value = w.Probe.min_value
      && m.Probe.max_value = w.Probe.max_value
      && m.Probe.overflow = w.Probe.overflow
      && m.Probe.buckets = w.Probe.buckets)

(* ---- event sink ---- *)

let sample_events =
  [
    Event_sink.Reconfig
      { round = 0; mini_round = 0; location = 1; previous = None; next = 2 };
    Event_sink.Reconfig
      { round = 1; mini_round = 0; location = 1; previous = Some 2; next = 0 };
    Event_sink.Drop { round = 2; color = 3; count = 4 };
    Event_sink.Execute
      { round = 2; mini_round = 0; location = 1; color = 0; deadline = 5 };
  ]

let test_memory_sink_round_trip () =
  let sink = Event_sink.memory () in
  List.iter (Event_sink.record sink) sample_events;
  check_bool "chronological" true (Event_sink.events sink = sample_events);
  check "null sink keeps nothing" 0
    (List.length
       (let sink = Event_sink.Null in
        List.iter (Event_sink.record sink) sample_events;
        Event_sink.events sink))

let test_jsonl_event_round_trip () =
  List.iter
    (fun event ->
      let path = Filename.temp_file "rrs_sink" ".jsonl" in
      let channel = open_out path in
      let sink = Event_sink.Jsonl channel in
      Event_sink.record sink event;
      close_out channel;
      let line = In_channel.with_open_text path In_channel.input_all in
      Sys.remove path;
      let line = String.trim line in
      match Event_sink.parse_line line with
      | Ok (Event_sink.Event parsed) ->
          check_bool ("round trip " ^ line) true (parsed = event)
      | Ok _ -> Alcotest.failf "expected an event line for %s" line
      | Error message -> Alcotest.failf "parse %s: %s" line message)
    sample_events

let test_jsonl_parse_errors () =
  let expect_error text =
    match Event_sink.parse_line text with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "expected a parse error for %s" text
  in
  expect_error "";
  expect_error "not json";
  expect_error "{\"schema\":\"rrs-events/999\"}";
  expect_error "{\"type\":\"warp\",\"round\":1}";
  expect_error "{\"type\":\"drop\",\"round\":1,\"color\":2}" (* missing count *);
  expect_error "{\"type\":\"drop\",\"round\":1,\"color\":2,\"count\":\"x\"}";
  expect_error "{\"type\":\"drop\",\"round\":1,\"color\":2,\"count\":3} trailing"

(* ---- engine streaming + report ---- *)

let run_traced ?(horizon = 200) () =
  let instance = small_instance ~horizon () in
  let path = Filename.temp_file "rrs_events" ".jsonl" in
  let channel = open_out path in
  let result =
    Fun.protect
      ~finally:(fun () -> close_out channel)
      (fun () ->
        Engine.run ~sink:(Event_sink.Jsonl channel) ~n:4 ~policy instance)
  in
  (instance, path, result)

let test_report_matches_live_run () =
  let instance, path, result = run_traced () in
  let live = Format.asprintf "%a" Ledger.pp_summary result.Engine.ledger in
  (match Report.of_path path with
  | Error message -> Alcotest.failf "report: %s" message
  | Ok report ->
      check_string "byte-identical summary" live (Report.summary_string report);
      check "cost" (Ledger.total_cost result.Engine.ledger)
        (Report.total_cost report);
      check "reconfigs"
        (Ledger.reconfig_count result.Engine.ledger)
        report.Report.reconfig_count;
      check "drops"
        (Ledger.drop_count result.Engine.ledger)
        report.Report.drop_count;
      check "execs"
        (Ledger.exec_count result.Engine.ledger)
        report.Report.exec_count;
      check "every round snapshotted" instance.Instance.horizon
        report.Report.rounds_seen;
      check "exec slack samples"
        (Ledger.exec_count result.Engine.ledger)
        report.Report.exec_slack.Probe.count;
      check "drop latency samples"
        (Ledger.drop_count result.Engine.ledger)
        report.Report.drop_latency.Probe.count);
  Sys.remove path

let test_report_detects_truncation () =
  let _instance, path, _result = run_traced () in
  let lines =
    In_channel.with_open_text path In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (fun l -> String.trim l <> "")
  in
  let rewrite selected =
    Out_channel.with_open_text path (fun out ->
        List.iter (fun l -> Out_channel.output_string out (l ^ "\n")) selected)
  in
  (* A file cut off before the closing summary is an error... *)
  let without_summary =
    List.filteri (fun i _ -> i < List.length lines - 1) lines
  in
  rewrite without_summary;
  (match Report.of_path path with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "missing summary must be an error");
  (* ...and so is a complete-looking file with one event line missing:
     the folded counters no longer match the summary. *)
  let is_event line =
    match Event_sink.parse_line line with
    | Ok (Event_sink.Event _) -> true
    | _ -> false
  in
  let dropped = ref false in
  let with_hole =
    List.filter
      (fun line ->
        if (not !dropped) && is_event line then begin
          dropped := true;
          false
        end
        else true)
      lines
  in
  check_bool "run produced at least one event" true !dropped;
  rewrite with_hole;
  (match Report.of_path path with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "dropped event line must fail the summary cross-check");
  Sys.remove path

let test_report_requires_header () =
  let path = Filename.temp_file "rrs_events" ".jsonl" in
  Out_channel.with_open_text path (fun out ->
      Out_channel.output_string out
        "{\"type\":\"drop\",\"round\":1,\"color\":0,\"count\":1}\n");
  (match Report.of_path path with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "missing header must be an error");
  Sys.remove path

let test_engine_probe_stats () =
  let instance, path, result = run_traced () in
  let report =
    match Report.of_path path with
    | Ok report -> report
    | Error message -> Alcotest.failf "report: %s" message
  in
  Sys.remove path;
  check "round_reconfigs_sum = reconfigs"
    (Ledger.reconfig_count result.Engine.ledger)
    report.Report.round_reconfigs.Probe.sum;
  check "one churn sample per round" instance.Instance.horizon
    report.Report.round_reconfigs.Probe.count;
  check "one queue-depth sample per round" instance.Instance.horizon
    report.Report.queue_depth.Probe.count;
  (* [result.stats] is the policy's own counters, nothing else. *)
  check_bool "policy stats present" true
    (List.mem_assoc "epochs" result.Engine.stats);
  check_bool "no engine distributions in stats" false
    (List.exists
       (fun (key, _) -> String.starts_with ~prefix:"round_reconfigs" key)
       result.Engine.stats)

let test_engine_profile () =
  let instance = small_instance () in
  let result =
    Engine.run ~record_events:false ~profile:true ~n:4 ~policy instance
  in
  match result.Engine.profile with
  | None -> Alcotest.fail "profile requested but absent"
  | Some profile ->
      check "four phases" 4 (Profile.phase_count profile);
      Alcotest.(check (list string))
        "phase names" Engine.phase_names
        (List.map (fun (name, _, _) -> name) (Profile.fields profile));
      List.iteri
        (fun index _ ->
          check
            (Printf.sprintf "phase %d sampled once per round" index)
            instance.Instance.horizon (Profile.samples profile index))
        Engine.phase_names;
      check_bool "wall clocks nonnegative" true
        (List.for_all (fun (_, wall, _) -> wall >= 0.0) (Profile.fields profile))

let test_profile_off_by_default () =
  let instance = small_instance ~horizon:16 () in
  let result = Engine.run ~record_events:false ~n:4 ~policy instance in
  check_bool "no profile" true (result.Engine.profile = None)

(* ---- monotonic clock ---- *)

let test_clock_monotonic () =
  let t0 = Clock.now_s () in
  let a = Clock.now_ns () in
  let b = Clock.now_ns () in
  check_bool "ns nondecreasing" true (Int64.compare b a >= 0);
  check_bool "elapsed nonnegative" true (Clock.elapsed_s t0 >= 0.0);
  check_bool "elapsed clamps future marks" true
    (Clock.elapsed_s (Clock.now_s () +. 1e6) = 0.0)

(* ---- Instrument.super_epochs edge cases ---- *)

let test_super_epochs_watermark_one () =
  (* Every first-in-window distinct color closes a super-epoch at once;
     duplicates of the closing color open (and close) fresh windows. *)
  check "three updates, watermark 1" 3
    (Instrument.super_epochs ~watermark:1 [ (0, 1); (1, 1); (2, 2) ]);
  check "empty events" 0 (Instrument.super_epochs ~watermark:1 [])

let test_super_epochs_trailing_partial () =
  (* Colors 1,2 complete a super-epoch at watermark 2; color 3 alone is a
     trailing partial that still counts. *)
  check "complete + partial" 2
    (Instrument.super_epochs ~watermark:2 [ (0, 1); (1, 2); (2, 3) ]);
  (* Without the trailing update there is exactly the complete one. *)
  check "complete only" 1
    (Instrument.super_epochs ~watermark:2 [ (0, 1); (1, 2) ])

let test_super_epochs_duplicate_updates () =
  (* Repeated updates of one color within a super-epoch do not advance
     the distinct-color watermark. *)
  check "duplicates don't close" 1
    (Instrument.super_epochs ~watermark:2 [ (0, 1); (1, 1); (2, 1) ]);
  (* ...but a second distinct color still does, whatever the repetition. *)
  check "duplicates then close" 1
    (Instrument.super_epochs ~watermark:2 [ (0, 1); (1, 1); (2, 2) ]);
  match Instrument.super_epochs ~watermark:0 [ (0, 1) ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "watermark < 1 must raise"

(* ---- trace: atomic save + strict parsing ---- *)

let trace_instance () =
  Instance.make ~name:"t" ~delta:2 ~bounds:[| 2; 4 |]
    ~arrivals:[ (0, [ (0, 1) ]); (3, [ (1, 2) ]) ]
    ()

let test_trace_round_trip () =
  let instance = trace_instance () in
  match Trace.of_string (Trace.to_string instance) with
  | Error message -> Alcotest.failf "round trip: %s" message
  | Ok parsed ->
      check_string "name" instance.Instance.name parsed.Instance.name;
      check "delta" instance.Instance.delta parsed.Instance.delta;
      check_bool "bounds" true (instance.Instance.bounds = parsed.Instance.bounds);
      check_bool "requests" true
        (instance.Instance.requests = parsed.Instance.requests)

let test_trace_save_atomic () =
  let dir = Filename.temp_file "rrs_trace" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  let path = Filename.concat dir "x.trace" in
  let instance = trace_instance () in
  Trace.save instance ~path;
  (match Trace.load ~path with
  | Ok parsed -> check "atomic save loads" instance.Instance.delta
                   parsed.Instance.delta
  | Error message -> Alcotest.failf "load: %s" message);
  (* No temp residue in the directory. *)
  check "only the trace remains" 1 (Array.length (Sys.readdir dir));
  Sys.remove path;
  Sys.rmdir dir

let test_trace_parse_errors () =
  let expect_error ~needle text =
    match Trace.of_string text with
    | Ok _ -> Alcotest.failf "expected parse error (%s)" needle
    | Error message ->
        let contains =
          let nl = String.length needle and hl = String.length message in
          let rec go i =
            i + nl <= hl && (String.sub message i nl = needle || go (i + 1))
          in
          go 0
        in
        check_bool (Printf.sprintf "%S in %S" needle message) true contains
  in
  expect_error ~needle:"duplicate delta"
    "rrs-trace v1\ndelta 2\ndelta 3\nbounds 2\nend\n";
  expect_error ~needle:"duplicate bounds"
    "rrs-trace v1\ndelta 2\nbounds 2\nbounds 4\nend\n";
  expect_error ~needle:"after end"
    "rrs-trace v1\ndelta 2\nbounds 2\nend\narrival 0 0:1\n";
  expect_error ~needle:"missing delta" "rrs-trace v1\nbounds 2\nend\n";
  (* Comments and blank lines after end stay legal. *)
  match Trace.of_string "rrs-trace v1\ndelta 2\nbounds 2\nend\n# c\n\n" with
  | Ok _ -> ()
  | Error message -> Alcotest.failf "comment after end: %s" message

let suite =
  [
    ( "obs.probe",
      [
        Alcotest.test_case "counter and gauge" `Quick test_probe_counter_gauge;
        Alcotest.test_case "disabled registry" `Quick
          test_probe_disabled_costs_nothing;
        Alcotest.test_case "histogram percentiles" `Quick
          test_probe_histogram_percentiles;
        Alcotest.test_case "percentile edge cases" `Quick
          test_probe_percentile_edges;
        Alcotest.test_case "snapshot p90/p999" `Quick
          test_probe_snapshot_extended_percentiles;
        Alcotest.test_case "cross-registry merge" `Quick test_probe_merge;
        QCheck_alcotest.to_alcotest prop_merge_equals_single;
      ] );
    ( "obs.sink",
      [
        Alcotest.test_case "memory round trip" `Quick
          test_memory_sink_round_trip;
        Alcotest.test_case "jsonl round trip" `Quick test_jsonl_event_round_trip;
        Alcotest.test_case "jsonl parse errors" `Quick test_jsonl_parse_errors;
      ] );
    ( "obs.report",
      [
        Alcotest.test_case "matches live run" `Quick test_report_matches_live_run;
        Alcotest.test_case "detects truncation" `Quick
          test_report_detects_truncation;
        Alcotest.test_case "requires header" `Quick test_report_requires_header;
      ] );
    ( "obs.engine",
      [
        Alcotest.test_case "probe stats" `Quick test_engine_probe_stats;
        Alcotest.test_case "phase profile" `Quick test_engine_profile;
        Alcotest.test_case "profile off by default" `Quick
          test_profile_off_by_default;
      ] );
    ( "obs.sweep",
      [
        Alcotest.test_case "monotonic clock" `Quick test_clock_monotonic;
      ] );
    ( "obs.instrument",
      [
        Alcotest.test_case "watermark = 1" `Quick test_super_epochs_watermark_one;
        Alcotest.test_case "trailing partial" `Quick
          test_super_epochs_trailing_partial;
        Alcotest.test_case "duplicate updates" `Quick
          test_super_epochs_duplicate_updates;
      ] );
    ( "obs.trace",
      [
        Alcotest.test_case "round trip" `Quick test_trace_round_trip;
        Alcotest.test_case "atomic save" `Quick test_trace_save_atomic;
        Alcotest.test_case "parse errors" `Quick test_trace_parse_errors;
      ] );
  ]
