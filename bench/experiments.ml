(* Experiment tables E1-E16: one table per claim of the paper (the paper
   is theory-only, so each theorem/lemma/appendix construction is the
   "figure" we regenerate). See DESIGN.md section 4 and EXPERIMENTS.md. *)

module Instance = Rrs_sim.Instance
module Engine = Rrs_sim.Engine
module Ledger = Rrs_sim.Ledger
module Experiment = Rrs_stats.Experiment
module Summary = Rrs_stats.Summary
module Table = Rrs_stats.Table
module Bench_io = Rrs_stats.Bench_io
module Clock = Rrs_obs.Clock
module Adversary = Rrs_workload.Adversary
module Random_workloads = Rrs_workload.Random_workloads
module Instrument = Rrs_core.Instrument

(* When set, every experiment and engine run is also recorded into the
   machine-readable BENCH_*.json collector (see Bench_io). *)
let bench : Bench_io.t option ref = ref None

let section id claim =
  Option.iter (fun b -> Bench_io.start_experiment b ~id ~claim) !bench;
  Format.printf "@.---- %s: %s ----@." id claim

(* Run one policy under the engine, recording cost breakdown, wall clock,
   minor-heap allocation and (when collecting) the per-phase profile into
   the collector. *)
let recorded_run ?speed ?faults ~n ~policy instance =
  let module P = (val policy : Rrs_sim.Policy.POLICY) in
  let profile = !bench <> None in
  let minor0 = Gc.minor_words () in
  let t0 = Clock.now_s () in
  let result =
    Engine.run ?speed ?faults ~record_events:false ~profile ~n ~policy instance
  in
  let wall_s = Clock.elapsed_s t0 in
  let minor_words = Gc.minor_words () -. minor0 in
  Option.iter
    (fun b ->
      Bench_io.record b ~policy:P.name ~workload:instance.Instance.name ~n
        ~delta:instance.Instance.delta
        ~cost:(Ledger.total_cost result.Engine.ledger)
        ~reconfig_count:(Ledger.reconfig_count result.Engine.ledger)
        ~drop_count:(Ledger.drop_count result.Engine.ledger)
        ~exec_count:(Ledger.exec_count result.Engine.ledger)
        ~wall_s ~minor_words
        ?phases:(Option.map Rrs_obs.Profile.fields result.Engine.profile)
        ())
    !bench;
  result

let policy_cost ~n policy instance =
  Ledger.total_cost (recorded_run ~n ~policy instance).Engine.ledger

(* Experiment.run_policy with the same recording side channel. *)
let recorded_row ?speed ~n ~reference ~policy instance =
  let module P = (val policy : Rrs_sim.Policy.POLICY) in
  let minor0 = Gc.minor_words () in
  let t0 = Clock.now_s () in
  let row = Experiment.run_policy ?speed ~n ~reference ~policy instance in
  let wall_s = Clock.elapsed_s t0 in
  let minor_words = Gc.minor_words () -. minor0 in
  Option.iter
    (fun b ->
      Bench_io.record b ~policy:row.Experiment.algorithm
        ~workload:instance.Instance.name ~n ~delta:instance.Instance.delta
        ~cost:row.Experiment.cost ~reconfig_count:row.Experiment.reconfig_count
        ~drop_count:row.Experiment.drop_count ~wall_s ~minor_words ())
    !bench;
  row

let ratio cost denominator = float_of_int cost /. float_of_int (max denominator 1)

(* E1 — Appendix A: Delta-LRU's competitive ratio grows without bound;
   Delta-LRU-EDF stays flat on the same inputs. *)
let e1 () =
  section "E1"
    "Appendix A: dlru ratio grows like 2^(j+1)/(n*delta); dlru-edf stays O(1)";
  let n = 8 and delta = 2 in
  let table =
    Table.create ~title:"E1: lru-killer sweep (n=8, delta=2, k=j+3, OFF m=1)"
      ~columns:
        [ "j"; "dlru cost"; "dlru-edf cost"; "OFF cost"; "dlru ratio";
          "dlru-edf ratio"; "paper ratio" ]
  in
  List.iter
    (fun j ->
      let k = j + 3 in
      let adv = Adversary.lru_killer ~n ~delta ~j ~k in
      let dlru = policy_cost ~n (module Rrs_core.Policy_lru) adv.instance in
      let dlru_edf = policy_cost ~n (module Rrs_core.Policy_lru_edf) adv.instance in
      let paper =
        float_of_int ((n * delta) + (1 lsl k))
        /. float_of_int (delta + ((1 lsl (k - j - 1)) * n * delta))
      in
      Table.add_row table
        [
          Table.cell_int j;
          Table.cell_int dlru;
          Table.cell_int dlru_edf;
          Table.cell_int adv.off_cost;
          Table.cell_ratio (ratio dlru adv.off_cost);
          Table.cell_ratio (ratio dlru_edf adv.off_cost);
          Table.cell_ratio paper;
        ])
    [ 4; 5; 6; 7; 8 ];
  Table.print table

(* E2 — Appendix B: EDF's ratio grows with k - j; dlru-edf stays flat. *)
let e2 () =
  section "E2"
    "Appendix B: edf ratio grows like 2^(k-j-1)/(n/2+1); dlru-edf stays O(1)";
  let n = 8 and delta = 10 and j = 4 in
  let table =
    Table.create ~title:"E2: edf-killer sweep (n=8, delta=10, j=4, OFF m=1)"
      ~columns:
        [ "k-j"; "edf cost"; "edf reconfig"; "dlru-edf cost"; "OFF cost";
          "edf ratio"; "dlru-edf ratio"; "paper LB" ]
  in
  List.iter
    (fun k ->
      let adv = Adversary.edf_killer ~n ~delta ~j ~k in
      let edf_run =
        recorded_run ~n ~policy:(module Rrs_core.Policy_edf) adv.instance
      in
      let edf = Ledger.total_cost edf_run.ledger in
      let dlru_edf = policy_cost ~n (module Rrs_core.Policy_lru_edf) adv.instance in
      let paper =
        float_of_int (1 lsl (k - j - 1)) /. float_of_int ((n / 2) + 1)
      in
      Table.add_row table
        [
          Table.cell_int (k - j);
          Table.cell_int edf;
          Table.cell_int (Ledger.reconfig_cost edf_run.ledger);
          Table.cell_int dlru_edf;
          Table.cell_int adv.off_cost;
          Table.cell_ratio (ratio edf adv.off_cost);
          Table.cell_ratio (ratio dlru_edf adv.off_cost);
          Table.cell_ratio paper;
        ])
    [ 6; 7; 8; 9 ];
  Table.print table

let rate_limited_batch ~seed ~load =
  Random_workloads.uniform ~seed ~colors:12 ~delta:4 ~bound_log_range:(0, 4)
    ~horizon:256 ~load ~rate_limited:true ()

(* E3 — Theorem 1: dlru-edf with n = 8m is O(1)-competitive on
   rate-limited batched inputs. Ratios are against valid lower bounds, so
   they over-estimate the true competitive ratio. *)
let e3 () =
  section "E3"
    "Theorem 1: dlru-edf(n=8m) cost within a constant of OPT(m) on \
     rate-limited inputs";
  let m = 2 in
  let n = 8 * m in
  let table =
    Table.create ~title:"E3: random rate-limited, 5 seeds per load (m=2, n=16)"
      ~columns:
        [ "load"; "mean ratio"; "max ratio"; "mean cost"; "mean LB"; "mean greedy" ]
  in
  List.iter
    (fun load ->
      let rows =
        List.map
          (fun seed ->
            let instance = rate_limited_batch ~seed ~load in
            let reference = Experiment.reference ~m instance in
            let cost = policy_cost ~n (module Rrs_core.Policy_lru_edf) instance in
            ( ratio cost (Experiment.denominator reference),
              cost,
              reference.lower_bound,
              match reference.greedy_upper with Some g -> g | None -> 0 ))
          [ 1; 2; 3; 4; 5 ]
      in
      let ratios = List.map (fun (r, _, _, _) -> r) rows in
      let summary = Summary.of_floats ratios in
      let mean f = (Summary.of_ints (List.map f rows)).Summary.mean in
      Table.add_row table
        [
          Table.cell_float ~decimals:1 load;
          Table.cell_ratio summary.mean;
          Table.cell_ratio summary.max;
          Table.cell_float ~decimals:0 (mean (fun (_, c, _, _) -> c));
          Table.cell_float ~decimals:0 (mean (fun (_, _, lb, _) -> lb));
          Table.cell_float ~decimals:0 (mean (fun (_, _, _, g) -> g));
        ])
    [ 0.3; 0.6; 0.9; 1.2 ];
  Table.print table

(* E4 — Theorem 2: Distribute handles batched bursts; outer cost never
   exceeds the inner rate-limited run's cost (Lemma 4.2). *)
let e4 () =
  section "E4" "Theorem 2: Distribute on batched bursts (outer <= inner, Lemma 4.2)";
  let m = 2 in
  let n = 8 * m in
  let table =
    Table.create ~title:"E4: bursty batched inputs through Distribute (m=2, n=16)"
      ~columns:
        [ "load"; "seed"; "subcolors"; "outer cost"; "inner cost"; "vs LB" ]
  in
  List.iter
    (fun load ->
      List.iter
        (fun seed ->
          let instance =
            Random_workloads.uniform ~seed ~colors:8 ~delta:4
              ~bound_log_range:(0, 4) ~horizon:256 ~load ~rate_limited:false ()
          in
          match Rrs_core.Solver.solve ~pipeline:Distributed ~n instance with
          | Error message -> Format.printf "E4 failed: %s@." message
          | Ok outcome ->
              let reference = Experiment.reference ~m instance in
              let subcolors, _ = Rrs_core.Distribute.transform instance in
              Table.add_row table
                [
                  Table.cell_float ~decimals:1 load;
                  Table.cell_int seed;
                  Table.cell_int (Instance.num_colors subcolors);
                  Table.cell_int outcome.cost;
                  Table.cell_int (Ledger.total_cost outcome.inner.ledger);
                  Table.cell_ratio (ratio outcome.cost (Experiment.denominator reference));
                ])
        [ 1; 2 ])
    [ 2.0; 4.0; 8.0 ];
  Table.print table

(* E5 — Theorem 3: VarBatch on general arrivals with arbitrary bounds. *)
let e5 () =
  section "E5" "Theorem 3: VarBatch on unbatched arbitrary-bound inputs";
  let m = 2 in
  let n = 8 * m in
  let table =
    Table.create ~title:"E5: unbatched inputs through VarBatch (m=2, n=16)"
      ~columns:[ "load"; "mean ratio"; "max ratio"; "mean cost"; "mean LB" ]
  in
  List.iter
    (fun load ->
      let rows =
        List.filter_map
          (fun seed ->
            let instance =
              Random_workloads.unbatched ~seed ~colors:10 ~delta:4
                ~bound_range:(3, 40) ~horizon:256 ~load ()
            in
            match Rrs_core.Solver.solve ~pipeline:Var_batched ~n instance with
            | Error _ -> None
            | Ok { cost; _ } ->
                let reference = Experiment.reference ~m instance in
                Some
                  (ratio cost (Experiment.denominator reference), cost,
                   reference.lower_bound))
          [ 1; 2; 3; 4; 5 ]
      in
      let summary = Summary.of_floats (List.map (fun (r, _, _) -> r) rows) in
      let mean f = (Summary.of_ints (List.map f rows)).Summary.mean in
      Table.add_row table
        [
          Table.cell_float ~decimals:1 load;
          Table.cell_ratio summary.mean;
          Table.cell_ratio summary.max;
          Table.cell_float ~decimals:0 (mean (fun (_, c, _) -> c));
          Table.cell_float ~decimals:0 (mean (fun (_, _, lb) -> lb));
        ])
    [ 0.3; 0.6; 1.0 ];
  Table.print table

(* E6 — Lemma 3.2: eligible drops of dlru-edf(8m) <= drops of par-edf(m)
   <= DropCost(OFF_m). *)
let e6 () =
  section "E6" "Lemma 3.2: eligible drops(dlru-edf, 8m) <= drops(par-edf, m)";
  let m = 2 in
  let n = 8 * m in
  let table =
    Table.create ~title:"E6: drop-cost chain on rate-limited inputs (m=2, n=16)"
      ~columns:
        [ "load"; "seed"; "eligible drops"; "par-edf drops"; "holds" ]
  in
  List.iter
    (fun load ->
      List.iter
        (fun seed ->
          let instance = rate_limited_batch ~seed ~load in
          let result =
            recorded_run ~n ~policy:(module Rrs_core.Policy_lru_edf) instance
          in
          let eligible = Instrument.eligible_drops result.Engine.stats in
          let par = Rrs_core.Par_edf.drop_cost ~m instance in
          Table.add_row table
            [
              Table.cell_float ~decimals:1 load;
              Table.cell_int seed;
              Table.cell_int eligible;
              Table.cell_int par;
              (if eligible <= par then "yes" else "VIOLATED");
            ])
        [ 1; 2 ])
    [ 0.6; 1.0; 1.4 ];
  Table.print table

(* E7 — Lemmas 3.3 / 3.4: reconfiguration and ineligible-drop costs
   against their epoch bounds. *)
let e7 () =
  section "E7"
    "Lemmas 3.3/3.4: reconfig <= 4*epochs*delta; ineligible drops <= epochs*delta";
  let n = 16 in
  let table =
    Table.create ~title:"E7: epoch bounds on dlru-edf (n=16)"
      ~columns:
        [ "workload"; "epochs"; "reconfig cost"; "4*epochs*delta";
          "inelig drops"; "epochs*delta" ]
  in
  let workloads =
    [
      ("uniform-0.6", rate_limited_batch ~seed:11 ~load:0.6);
      ("uniform-1.2", rate_limited_batch ~seed:11 ~load:1.2);
      ( "bursty",
        Random_workloads.bursty ~seed:11 ~colors:12 ~delta:4
          ~bound_log_range:(0, 4) ~horizon:256 ~load:1.0 ~churn:0.3
          ~rate_limited:true () );
      ( "lru-killer",
        (Adversary.lru_killer ~n:16 ~delta:2 ~j:6 ~k:9).instance );
    ]
  in
  List.iter
    (fun (name, instance) ->
      let delta = instance.Instance.delta in
      let result =
        recorded_run ~n ~policy:(module Rrs_core.Policy_lru_edf) instance
      in
      Table.add_row table
        [
          name;
          Table.cell_int (Instrument.num_epochs result.stats);
          Table.cell_int (Ledger.reconfig_cost result.ledger);
          Table.cell_int (Instrument.lemma_3_3_bound ~delta result.stats);
          Table.cell_int (Instrument.ineligible_drops result.stats);
          Table.cell_int (Instrument.lemma_3_4_bound ~delta result.stats);
        ])
    workloads;
  Table.print table

(* E8 — Resource augmentation sweep: how much augmentation the solver
   needs before the ratio flattens. *)
let e8 () =
  section "E8" "Resource augmentation: solver ratio vs n/m";
  let m = 2 in
  let table =
    Table.create ~title:"E8: augmentation sweep (uniform load 0.9, m=2, 3 seeds)"
      ~columns:[ "n/m"; "mean ratio"; "mean cost"; "mean drops" ]
  in
  let seeds = [ 31; 32; 33 ] in
  List.iter
    (fun factor ->
      let rows =
        List.filter_map
          (fun seed ->
            let instance = rate_limited_batch ~seed ~load:0.9 in
            let reference = Experiment.reference ~m instance in
            let minor0 = Gc.minor_words () in
            let t0 = Clock.now_s () in
            match Experiment.run_solver ~n:(factor * m) ~reference instance with
            | Ok row ->
                Option.iter
                  (fun b ->
                    Bench_io.record b ~policy:row.Experiment.algorithm
                      ~workload:instance.Instance.name ~n:(factor * m)
                      ~delta:instance.Instance.delta ~cost:row.Experiment.cost
                      ~reconfig_count:row.Experiment.reconfig_count
                      ~drop_count:row.Experiment.drop_count
                      ~wall_s:(Clock.elapsed_s t0)
                      ~minor_words:(Gc.minor_words () -. minor0)
                      ())
                  !bench;
                Some row
            | Error _ -> None)
          seeds
      in
      let mean f = (Summary.of_ints (List.map f rows)).Summary.mean in
      Table.add_row table
        [
          Table.cell_int factor;
          Table.cell_ratio
            (Summary.of_floats (List.map (fun (r : Experiment.row) -> r.ratio) rows))
              .Summary.mean;
          Table.cell_float ~decimals:0 (mean (fun r -> r.Experiment.cost));
          Table.cell_float ~decimals:0 (mean (fun r -> r.Experiment.drop_count));
        ])
    [ 1; 2; 4; 8; 16 ];
  Table.print table

(* E9 — Intro motivation scenario: dlru underutilizes, edf thrashes,
   dlru-edf balances. *)
let e9 () =
  section "E9" "Intro scenario: thrashing vs underutilization";
  let instance =
    Adversary.motivation ~seed:11 ~short_colors:8 ~short_bound_log:3
      ~long_bound_log:10 ~delta:4 ~burst_probability:0.6 ()
  in
  let reference = Experiment.reference ~m:2 instance in
  let table =
    Table.create
      ~title:"E9: motivation workload (8 bursty short colors + 1024-job backlog, m=2)"
      ~columns:[ "n"; "policy"; "cost"; "reconfig cost"; "drops"; "vs LB" ]
  in
  List.iter
    (fun n ->
      List.iter
        (fun (name, policy) ->
          let row = recorded_row ~n ~reference ~policy instance in
          Table.add_row table
            [
              Table.cell_int n;
              name;
              Table.cell_int row.cost;
              Table.cell_int (instance.Instance.delta * row.reconfig_count);
              Table.cell_int row.drop_count;
              Table.cell_ratio row.ratio;
            ])
        Experiment.standard_policies)
    [ 8; 16 ];
  Table.print table

(* E10 — Cost breakdown on the domain scenarios. *)
let e10 () =
  section "E10" "Cost breakdown on data-center and router scenarios";
  let scenarios =
    [
      ( "datacenter",
        Rrs_workload.Scenarios.datacenter ~seed:42 ~services:12 ~delta:6
          ~phases:4 ~phase_length:128 () );
      ( "router",
        Rrs_workload.Scenarios.router ~seed:7 ~classes:10 ~delta:5 ~horizon:512
          ~utilization:0.8 ~n_ref:4 () );
    ]
  in
  let table =
    Table.create ~title:"E10: scenarios (n=16, m=2)"
      ~columns:[ "scenario"; "policy"; "cost"; "reconfig%"; "drop%"; "vs LB" ]
  in
  List.iter
    (fun (scenario, instance) ->
      let reference = Experiment.reference ~m:2 instance in
      List.iter
        (fun (name, policy) ->
          let row = recorded_row ~n:16 ~reference ~policy instance in
          let reconfig_cost = instance.Instance.delta * row.reconfig_count in
          let pct part = 100.0 *. float_of_int part /. float_of_int (max row.cost 1) in
          Table.add_row table
            [
              scenario;
              name;
              Table.cell_int row.cost;
              Printf.sprintf "%.0f%%" (pct reconfig_cost);
              Printf.sprintf "%.0f%%" (pct row.drop_count);
              Table.cell_ratio row.ratio;
            ])
        Experiment.standard_policies)
    scenarios;
  Table.print table

(* E12 — the offline constructions: Aggregate (Lemma 4.1) and the
   punctual schedule of Lemma 5.3 preserve executions at constant-factor
   reconfiguration cost. *)
let e12 () =
  section "E12"
    "Lemmas 4.1/5.3: Aggregate & Punctualize preserve executions at O(1) cost";
  let module OS = Rrs_offline.Offline_schedule in
  let table =
    Table.create ~title:"E12: offline constructions"
      ~columns:
        [ "construction"; "input"; "execs in"; "execs out"; "reconfig in";
          "reconfig out"; "resources" ]
  in
  (* Aggregate over thrashy EDF schedules on bursty batched inputs. *)
  List.iter
    (fun seed ->
      let instance =
        Random_workloads.bursty ~seed ~colors:6 ~delta:2 ~bound_log_range:(0, 4)
          ~horizon:96 ~load:2.0 ~churn:0.4 ~rate_limited:false ()
      in
      let run =
        Engine.run ~record_events:true ~n:4 ~policy:(module Rrs_core.Policy_edf)
          instance
      in
      let schedule = Rrs_sim.Schedule.of_run ~instance ~n:4 ~speed:1 run.ledger in
      let grid = OS.of_schedule schedule in
      match Rrs_offline.Aggregate.run grid with
      | Error message -> Format.printf "E12 aggregate failed: %s@." message
      | Ok result ->
          Table.add_row table
            [
              "aggregate";
              Printf.sprintf "bursty seed=%d" seed;
              Table.cell_int (OS.exec_count grid);
              Table.cell_int (OS.exec_count result.output);
              Table.cell_int (OS.reconfig_count grid);
              Table.cell_int (OS.reconfig_count result.output);
              Printf.sprintf "%d->%d" grid.OS.m result.output.OS.m;
            ])
    [ 1; 2; 3 ];
  (* Punctualize over greedy schedules on jittered pow2 inputs. *)
  List.iter
    (fun seed ->
      let base =
        Random_workloads.uniform ~seed ~colors:5 ~delta:3 ~bound_log_range:(1, 4)
          ~horizon:96 ~load:0.7 ~rate_limited:true ()
      in
      let rng = Rrs_workload.Gen.create ~seed:(seed * 13) in
      let instance =
        Instance.make
          ~name:(Printf.sprintf "jittered-%d" seed)
          ~delta:3 ~bounds:base.Instance.bounds
          ~arrivals:
            (List.map
               (fun (round, request) ->
                 (round + Rrs_workload.Gen.int rng 3, request))
               (Instance.nonempty_arrivals base))
          ()
      in
      match Rrs_offline.Greedy_offline.run ~m:2 instance with
      | Error message -> Format.printf "E12 greedy failed: %s@." message
      | Ok { schedule; _ } -> (
          let grid = OS.of_schedule schedule in
          match Rrs_offline.Punctualize.punctual_schedule grid with
          | Error message -> Format.printf "E12 punctualize failed: %s@." message
          | Ok out ->
              Table.add_row table
                [
                  "punctualize";
                  Printf.sprintf "jittered seed=%d" seed;
                  Table.cell_int (OS.exec_count grid);
                  Table.cell_int (OS.exec_count out);
                  Table.cell_int (OS.reconfig_count grid);
                  Table.cell_int (OS.reconfig_count out);
                  Printf.sprintf "%d->%d" grid.OS.m out.OS.m;
                ]))
    [ 1; 2; 3 ];
  Table.print table

(* E13 — Corollary 3.1 chain: drops(DS-Seq-EDF_m) <= drops(Par-EDF_m). *)
let e13 () =
  section "E13" "Corollary 3.1: drops(ds-seq-edf, m) <= drops(par-edf, m)";
  let table =
    Table.create ~title:"E13: reference-scheduler drop chain"
      ~columns:[ "workload"; "m"; "ds-seq-edf drops"; "par-edf drops"; "holds" ]
  in
  List.iter
    (fun (name, instance) ->
      List.iter
        (fun m ->
          let ds =
            recorded_run ~speed:2 ~n:m ~policy:(module Rrs_core.Seq_edf)
              instance
          in
          let ds_drops = Ledger.drop_count ds.Engine.ledger in
          let par = Rrs_core.Par_edf.drop_cost ~m instance in
          Table.add_row table
            [
              name;
              Table.cell_int m;
              Table.cell_int ds_drops;
              Table.cell_int par;
              (if ds_drops <= par then "yes" else "VIOLATED");
            ])
        [ 1; 2; 4 ])
    [
      ("uniform-0.9", rate_limited_batch ~seed:3 ~load:0.9);
      ("uniform-1.4", rate_limited_batch ~seed:3 ~load:1.4);
      ( "router",
        Rrs_workload.Scenarios.router ~seed:7 ~classes:10 ~delta:5 ~horizon:256
          ~utilization:0.9 ~n_ref:4 () );
    ];
  Table.print table

(* E14 — ablation: vary the LRU/EDF split of ΔLRU-EDF, and compare the
   LRU-2 recency baseline. Share 1.0 degenerates to ΔLRU (dies on the
   Appendix A input), share 0.0 to sticky EDF (dies on the Appendix B
   input); only the combination survives both. *)
let e14 () =
  section "E14"
    "Ablation: LRU/EDF cache split (1.0 = pure LRU, 0.0 = pure EDF) + LRU-2";
  let n = 8 in
  let workloads =
    [
      ("lru-killer", (Adversary.lru_killer ~n ~delta:2 ~j:6 ~k:9).instance,
       (Adversary.lru_killer ~n ~delta:2 ~j:6 ~k:9).off_cost);
      ("edf-killer", (Adversary.edf_killer ~n ~delta:10 ~j:4 ~k:8).instance,
       (Adversary.edf_killer ~n ~delta:10 ~j:4 ~k:8).off_cost);
    ]
  in
  let policies =
    List.map
      (fun share -> Rrs_core.Lru_edf_core.with_share share)
      [ 0.0; 0.25; 0.5; 0.75; 1.0 ]
    @ [ (module Rrs_core.Policy_lru_k : Rrs_sim.Policy.POLICY) ]
  in
  let table =
    Table.create ~title:"E14: cache-split ablation (n=8, OFF m=1)"
      ~columns:[ "policy"; "lru-killer cost"; "vs OFF"; "edf-killer cost"; "vs OFF" ]
  in
  List.iter
    (fun policy ->
      let module P = (val policy : Rrs_sim.Policy.POLICY) in
      let cells =
        List.concat_map
          (fun (_, instance, off) ->
            let cost = policy_cost ~n policy instance in
            [ Table.cell_int cost; Table.cell_ratio (ratio cost off) ])
          workloads
      in
      Table.add_row table (P.name :: cells))
    policies;
  Table.print table

(* E15 — the value of reconfiguration: the clairvoyant *static*
   partitioning baseline vs the online reconfigurable algorithm. Static
   is fine when the mix is stationary and collapses when it shifts — the
   paper's Section 1 motivation, quantified. *)

(* 24 services, phases of 128 rounds; in phase p services 4p..4p+3 are
   hot (bound 8, ~6 jobs per batch). Each phase fits 8 resources; the
   union of hot sets does not fit any static 8. *)
let rotating_hot_set ~delta =
  let services = 24 and phase_length = 128 and phases = 6 in
  let bounds = Array.make services 8 in
  let arrivals = ref [] in
  for phase = 0 to phases - 1 do
    for slot = 0 to 3 do
      let service = (4 * phase) + slot in
      let round = ref (phase * phase_length) in
      while !round < (phase + 1) * phase_length do
        arrivals := (!round, [ (service, 6) ]) :: !arrivals;
        round := !round + bounds.(service)
      done
    done
  done;
  Instance.make
    ~name:(Printf.sprintf "rotating-hot-set(delta=%d)" delta)
    ~delta ~bounds ~arrivals:(List.rev !arrivals) ()

let e15 () =
  section "E15"
    "Static partitioning vs reconfigurable scheduling (the paper's motivation)";
  let n = 8 in
  let table =
    Table.create ~title:"E15: static (clairvoyant, n=8) vs dlru-edf (online, n=8)"
      ~columns:
        [ "workload"; "static cost"; "static drops"; "dlru-edf cost";
          "dlru-edf drops"; "static/dlru-edf" ]
  in
  let workloads =
    [
      (* Fewer colors than resources: static trivially covers everything. *)
      ( "stationary, 6 colors",
        Random_workloads.uniform ~seed:5 ~colors:6 ~delta:4
          ~bound_log_range:(0, 4) ~horizon:512 ~load:0.8 ~rate_limited:true () );
      (* Rotating hot set: 24 services, only 4 hot per phase (so each
         phase fits in n = 8 resources), but the union does not fit any
         static choice of 8. The reconfiguration price delta decides the
         margin — the crossover. *)
      ("rotating hot set, delta=1", rotating_hot_set ~delta:1);
      ("rotating hot set, delta=4", rotating_hot_set ~delta:4);
      ("rotating hot set, delta=16", rotating_hot_set ~delta:16);
      ( "oversaturated bursty, delta=4",
        Random_workloads.bursty ~seed:9 ~colors:32 ~delta:4
          ~bound_log_range:(0, 4) ~horizon:512 ~load:1.0 ~churn:0.4
          ~rate_limited:true () );
    ]
  in
  List.iter
    (fun (name, instance) ->
      match Rrs_offline.Static_offline.run ~m:n instance with
      | Error message -> Format.printf "E15 static failed: %s@." message
      | Ok static ->
          Option.iter
            (fun b ->
              Bench_io.record b ~policy:"static-offline"
                ~workload:instance.Instance.name ~n
                ~delta:instance.Instance.delta ~cost:static.Rrs_offline.Static_offline.cost
                ~reconfig_count:(Rrs_sim.Schedule.reconfig_count static.schedule)
                ~drop_count:(Rrs_sim.Schedule.drop_count static.schedule) ())
            !bench;
          let dynamic =
            recorded_run ~n ~policy:(module Rrs_core.Policy_lru_edf) instance
          in
          let dynamic_cost = Ledger.total_cost dynamic.Engine.ledger in
          Table.add_row table
            [
              name;
              Table.cell_int static.cost;
              Table.cell_int (Rrs_sim.Schedule.drop_count static.schedule);
              Table.cell_int dynamic_cost;
              Table.cell_int (Ledger.drop_count dynamic.ledger);
              Table.cell_ratio (ratio static.cost dynamic_cost);
            ])
    workloads;
  Table.print table

(* E16 — extension: the companion problem [Δ | c_l | D | D] (uniform
   bounds, variable drop costs — the titled SPAA 2006 paper's setting).
   A Landlord-style weight-aware policy vs the weight-blind algorithms,
   on tiered workloads where a few sparse colors carry most of the value. *)
let e16 () =
  section "E16"
    "Companion problem [delta | c_l | D | D]: weight-aware Landlord vs \
     weight-blind policies";
  let table =
    Table.create
      ~title:"E16: tiered drop costs (1 precious color x cost, 5 cheap; n=16)"
      ~columns:
        [ "precious cost"; "landlord"; "dlru-edf"; "dlru"; "edf"; "weighted LB" ]
  in
  List.iter
    (fun precious_cost ->
      let w =
        Rrs_uniform.Weighted_workloads.tiered ~seed:3 ~colors:6 ~delta:8 ~bound:8
          ~horizon:512 ~load:0.5 ~precious:1 ~precious_cost ()
      in
      let cost policy = Rrs_uniform.Weighted.run_policy ~n:16 ~policy w in
      Table.add_row table
        [
          Table.cell_int precious_cost;
          Table.cell_int
            (cost
               (Rrs_uniform.Landlord.policy
                  ~drop_costs:w.Rrs_uniform.Weighted.drop_costs));
          Table.cell_int (cost (module Rrs_core.Policy_lru_edf));
          Table.cell_int (cost (module Rrs_core.Policy_lru));
          Table.cell_int (cost (module Rrs_core.Policy_edf));
          Table.cell_int (Rrs_uniform.Weighted.lower_bound w);
        ])
    [ 1; 10; 100; 1000 ];
  Table.print table

(* E17 — robustness extension (not a paper claim): graceful degradation
   under injected location crashes. Sweeping the stationary offline
   fraction shows drop counts rising with lost capacity while the
   competitive ordering of the policies is preserved — the schedulers
   degrade, they do not collapse. Plans come from the seeded generator,
   so every cell is reproducible from (workload seed, fault seed). *)
let e17 () =
  section "E17"
    "Fault injection: drops grow smoothly with crash density; dlru-edf \
     stays ahead of the greedy baselines";
  let n = 8 in
  let instance =
    Random_workloads.uniform ~seed:11 ~colors:8 ~delta:4
      ~bound_log_range:(2, 4) ~horizon:512 ~load:0.7 ~rate_limited:true ()
  in
  let policies =
    [
      ("dlru-edf", (module Rrs_core.Policy_lru_edf : Rrs_sim.Policy.POLICY));
      ("dlru", (module Rrs_core.Policy_lru));
      ("edf", (module Rrs_core.Policy_edf));
    ]
  in
  let table =
    Table.create
      ~title:
        (Printf.sprintf
           "E17: cost (drops) vs crash density, %s, n=%d, fault seed 17"
           instance.Instance.name n)
      ~columns:
        ("density" :: "offline lr"
        :: List.map (fun (name, _) -> name) policies)
  in
  List.iter
    (fun density ->
      let faults =
        if density = 0.0 then None
        else
          Some
            (Rrs_workload.Fault_gen.random ~seed:17 ~n
               ~horizon:instance.Instance.horizon ~crash_density:density
               ~mean_outage:8 ())
      in
      let offline =
        match faults with
        | None -> 0
        | Some plan -> Rrs_sim.Fault.offline_location_rounds plan
      in
      Table.add_row table
        (Printf.sprintf "%.2f" density
        :: Table.cell_int offline
        :: List.map
             (fun (_, policy) ->
               let ledger =
                 (recorded_run ?faults ~n ~policy instance).Engine.ledger
               in
               Printf.sprintf "%d (%d)" (Ledger.total_cost ledger)
                 (Ledger.drop_count ledger))
             policies))
    [ 0.0; 0.05; 0.1; 0.2; 0.4 ];
  Table.print table

(* [run_all ?json ()] regenerates every claim table; with [json] set, the
   same results are also serialized to that path as a BENCH_*.json
   document (schema: Bench_io.schema_version). *)
let run_all ?json () =
  bench := Option.map (fun path -> Bench_io.create ~tag:(Bench_io.tag_of_path path)) json;
  e1 ();
  e2 ();
  e3 ();
  e4 ();
  e5 ();
  e6 ();
  e7 ();
  e8 ();
  e9 ();
  e10 ();
  e12 ();
  e13 ();
  e14 ();
  e15 ();
  e16 ();
  e17 ();
  (match (!bench, json) with
  | Some b, Some path ->
      Bench_io.write b ~path;
      Format.printf "@.wrote %s@." path
  | _ -> ());
  bench := None
