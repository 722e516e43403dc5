(* E11 — throughput microbenches (bechamel): how fast the simulator and
   the algorithms run, scaling in colors and resources. One Test.make per
   measured configuration; OLS estimate of ns/run printed as a table. *)

open Bechamel
open Toolkit

let make_instance ~colors =
  Rrs_workload.Random_workloads.uniform ~seed:17 ~colors ~delta:4
    ~bound_log_range:(0, 4) ~horizon:128 ~load:0.8 ~rate_limited:true ()

let engine_test ~name ~policy ~n instance =
  Test.make ~name
    (Staged.stage (fun () ->
         ignore (Rrs_sim.Engine.cost ~n ~policy instance)))

let tests () =
  let policies : (string * (module Rrs_sim.Policy.POLICY)) list =
    [
      ("dlru", (module Rrs_core.Policy_lru));
      ("edf", (module Rrs_core.Policy_edf));
      ("dlru-edf", (module Rrs_core.Policy_lru_edf));
    ]
  in
  let scaling_in_colors =
    List.concat_map
      (fun colors ->
        let instance = make_instance ~colors in
        List.map
          (fun (name, policy) ->
            engine_test
              ~name:(Printf.sprintf "%s/colors=%d" name colors)
              ~policy ~n:16 instance)
          policies)
      [ 8; 32; 128 ]
  in
  let scaling_in_resources =
    let instance = make_instance ~colors:32 in
    List.map
      (fun n ->
        engine_test
          ~name:(Printf.sprintf "dlru-edf/n=%d" n)
          ~policy:(module Rrs_core.Policy_lru_edf)
          ~n instance)
      [ 4; 16; 64 ]
  in
  (* The benchmark sweep's large cell: 256 colors, Zipf(1.1) arrivals,
     n = 64, where the per-round work of the policies dominates. *)
  let sweep_shape =
    let instance =
      Rrs_workload.Random_workloads.zipf ~seed:17 ~colors:256 ~delta:8
        ~bound_log_range:(2, 6) ~horizon:128 ~load:0.2 ~s:1.1 ~rate_limited:true ()
    in
    List.map
      (fun (name, policy) ->
        engine_test ~name:(Printf.sprintf "%s/zipf256,n=64" name) ~policy ~n:64 instance)
      policies
  in
  let pipelines =
    let batched =
      Rrs_workload.Random_workloads.uniform ~seed:17 ~colors:16 ~delta:4
        ~bound_log_range:(0, 4) ~horizon:128 ~load:3.0 ~rate_limited:false ()
    in
    let unbatched =
      Rrs_workload.Random_workloads.unbatched ~seed:17 ~colors:16 ~delta:4
        ~bound_range:(3, 24) ~horizon:128 ~load:0.5 ()
    in
    [
      Test.make ~name:"pipeline/distribute"
        (Staged.stage (fun () ->
             ignore
               (Result.get_ok
                  (Rrs_core.Solver.solve ~pipeline:Distributed ~n:16 batched))));
      Test.make ~name:"pipeline/varbatch"
        (Staged.stage (fun () ->
             ignore
               (Result.get_ok
                  (Rrs_core.Solver.solve ~pipeline:Var_batched ~n:16 unbatched))));
      Test.make ~name:"reference/par-edf"
        (Staged.stage (fun () ->
             ignore (Rrs_core.Par_edf.drop_cost ~m:2 (make_instance ~colors:32))));
      Test.make ~name:"reference/greedy-offline"
        (Staged.stage (fun () ->
             ignore (Rrs_offline.Greedy_offline.cost ~m:2 (make_instance ~colors:32))));
    ]
  in
  scaling_in_colors @ scaling_in_resources @ sweep_shape @ pipelines

let run () =
  Format.printf "@.---- E11: throughput microbenches (bechamel, ns per full run) ----@.";
  let cfg =
    Benchmark.cfg ~limit:100 ~quota:(Time.second 0.25) ~kde:None ~stabilize:false ()
  in
  let table =
    Rrs_stats.Table.create ~title:"E11: engine + pipeline throughput"
      ~columns:[ "benchmark"; "time per run"; "runs/s"; "r^2" ]
  in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  List.iter
    (fun test ->
      let raw = Benchmark.all cfg Instance.[ monotonic_clock ] test in
      let results = Analyze.all ols Instance.monotonic_clock raw in
      Hashtbl.iter
        (fun name ols_result ->
          match Analyze.OLS.estimates ols_result with
          | Some (ns :: _) ->
              let human =
                if ns > 1e9 then Printf.sprintf "%.2f s" (ns /. 1e9)
                else if ns > 1e6 then Printf.sprintf "%.2f ms" (ns /. 1e6)
                else if ns > 1e3 then Printf.sprintf "%.2f us" (ns /. 1e3)
                else Printf.sprintf "%.0f ns" ns
              in
              Rrs_stats.Table.add_row table
                [
                  name;
                  human;
                  Printf.sprintf "%.1f" (1e9 /. ns);
                  (match Analyze.OLS.r_square ols_result with
                  | Some r2 -> Printf.sprintf "%.3f" r2
                  | None -> "-");
                ]
          | Some [] | None ->
              Rrs_stats.Table.add_row table [ name; "-"; "-"; "-" ])
        results)
    (tests ());
  Rrs_stats.Table.print table
