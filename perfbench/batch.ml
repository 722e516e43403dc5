(* The [sweep] workload: the batch engine in process, on one domain. A
   fixed seeded grid of {!Rrs_sim.Engine.run} cells plus one
   {!Rrs_core.Solver.solve} on an unbatched instance (the VarBatch
   pipeline) is run pass after pass for the window. No byte touches the
   wire, so only engine and policy changes move it. *)

open Common
module Engine = Rrs_sim.Engine
module Stepper = Rrs_sim.Stepper
module Ledger = Rrs_sim.Ledger
module Instance = Rrs_sim.Instance
module Schedule = Rrs_sim.Schedule
module RW = Rrs_workload.Random_workloads

let policies = [ "dlru-edf"; "dlru"; "edf" ]

type cell = { label : string; n : int; instance : Instance.t; policy : string option }
(** [policy = None] is the Solver cell. *)

(* 8 colours against 256: the working-set split for Color_state and
   Ranking. Horizons are long enough that a run is dominated by rounds,
   not by set-up. *)
let instances ~seed =
  let uniform =
    RW.uniform ~seed ~colors:8 ~delta:4 ~bound_log_range:(1, 4) ~horizon:20_000
      ~load:0.9 ~rate_limited:true ()
  in
  let zipf =
    RW.zipf ~seed:(seed + 1) ~colors:256 ~delta:8 ~bound_log_range:(2, 6)
      ~horizon:4_000 ~load:0.2 ~s:1.1 ~rate_limited:true ()
  in
  let unbatched =
    RW.unbatched ~seed:(seed + 2) ~colors:16 ~delta:4 ~bound_range:(3, 24)
      ~horizon:4_000 ~load:0.05 ()
  in
  (uniform, zipf, unbatched)

let grid (uniform, zipf, unbatched) =
  List.concat_map
    (fun p ->
      [
        { label = "uniform8/" ^ p; n = 8; instance = uniform; policy = Some p };
        { label = "zipf256/" ^ p; n = 64; instance = zipf; policy = Some p };
      ])
    policies
  @ [ { label = "unbatched16/solver"; n = 16; instance = unbatched; policy = None } ]

(* The per-round latency cell: the paper's algorithm on the large
   working set, stepped round by round. *)
let latency_cell cells = List.find (fun c -> c.label = "zipf256/dlru-edf") cells

let policy_module name =
  match Rrs_core.Policies.find name with
  | Some p -> p
  | None -> fail "policy %s is not registered" name

type outcome = { cost : int; reconfigs : int; drops : int }

(* Ledgers pinned on the default seed; a change in any of them is a
   behaviour change of the engine, a policy or the solver. *)
let golden =
  [
    ("uniform8/dlru-edf", { cost = 155024; reconfigs = 34126; drops = 18520 });
    ("zipf256/dlru-edf", { cost = 181019; reconfigs = 17716; drops = 39291 });
    ("uniform8/dlru", { cost = 73535; reconfigs = 2620; drops = 63055 });
    ("zipf256/dlru", { cost = 73446; reconfigs = 978; drops = 65622 });
    ("uniform8/edf", { cost = 159596; reconfigs = 35698; drops = 16804 });
    ("zipf256/edf", { cost = 171022; reconfigs = 16312; drops = 40526 });
    ("unbatched16/solver", { cost = 4969; reconfigs = 950; drops = 1169 });
  ]

type run = Engine_run of Engine.result | Solver_run of Rrs_core.Solver.outcome

let run_cell ?(profile = false) ?(record_events = false) cell =
  match cell.policy with
  | Some p ->
      let result =
        Engine.run ~record_events ~profile ~n:cell.n ~policy:(policy_module p)
          cell.instance
      in
      let l = result.ledger in
      ( { cost = Ledger.total_cost l; reconfigs = Ledger.reconfig_count l;
          drops = Ledger.drop_count l },
        Engine_run result )
  | None -> (
      match Rrs_core.Solver.solve ~n:cell.n cell.instance with
      | Ok o ->
          ({ cost = o.cost; reconfigs = o.reconfig_count; drops = o.drop_count }, Solver_run o)
      | Error message -> fail "%s: solver: %s" cell.label message)

(* Once per run, outside the window: every cell's schedule validates and
   its recomputed cost equals its ledger. *)
let validate cell =
  let outcome, run = run_cell ~record_events:true cell in
  let schedule =
    match run with
    | Engine_run result ->
        Schedule.of_run ~instance:cell.instance ~n:cell.n ~speed:1 result.ledger
    | Solver_run o ->
        if o.pipeline <> Rrs_core.Solver.Var_batched then
          incorrect "%s: solved by %s, not VarBatch" cell.label
            (Rrs_core.Solver.pipeline_to_string o.pipeline);
        o.schedule
  in
  (match Schedule.validate schedule with
  | Ok () -> ()
  | Error (first :: _) -> incorrect "%s: schedule invalid: %s" cell.label first
  | Error [] -> incorrect "%s: schedule invalid" cell.label);
  if Schedule.total_cost schedule <> outcome.cost then
    incorrect "%s: recomputed cost %d, ledger %d" cell.label
      (Schedule.total_cost schedule) outcome.cost;
  if Schedule.reconfig_count schedule <> outcome.reconfigs
     || Schedule.drop_count schedule <> outcome.drops
  then incorrect "%s: recomputed reconfigs/drops differ from the ledger" cell.label;
  outcome

let describe o = Printf.sprintf "cost=%d reconfigs=%d drops=%d" o.cost o.reconfigs o.drops

let engine_metrics ~phases ~minor ~rounds ~jobs ~reconfigs ~drops =
  let per_round x = if rounds = 0 then 0. else x /. float_of_int rounds in
  List.mapi
    (fun i name -> metric ("engine." ^ name ^ "_ns") "ns" (per_round (phases.(i) *. 1e9)))
    Stepper.phase_names
  @ [
      metric "engine.minor_words" "words" (per_round minor);
      metric "engine.jobs" "count" (float_of_int jobs);
      metric "engine.reconfigs" "count" (float_of_int reconfigs);
      metric "engine.drops" "count" (float_of_int drops);
    ]

(* Step the latency cell round by round, timing feed + step. *)
let stepped_pass cell lat =
  let inst = cell.instance in
  let st =
    Stepper.create ~record_events:false ~policy:(policy_module (Option.get cell.policy))
      { Stepper.name = inst.name; delta = inst.delta; bounds = inst.bounds; n = cell.n;
        speed = 1; horizon = inst.horizon }
  in
  for r = 0 to inst.horizon - 1 do
    let t = now_ns () in
    (match inst.requests.(r) with [] -> () | request -> Stepper.feed st request);
    Stepper.step st;
    Vec.push lat (now_ns () - t)
  done;
  let l = Stepper.ledger st in
  { cost = Ledger.total_cost l; reconfigs = Ledger.reconfig_count l; drops = Ledger.drop_count l }

type tally = {
  mutable wall_ns : int;
  mutable jobs : int;
  mutable rounds : int;
  mutable runs : int;
  lat : Vec.t;
  solver_s : float list ref;
  phases : float array;
  mutable minor : float;
  mutable prof_rounds : int;
  mutable prof_jobs : int;
  mutable prof_reconfigs : int;
  mutable prof_drops : int;
}

let new_tally () =
  {
    wall_ns = 0; jobs = 0; rounds = 0; runs = 0; lat = Vec.create (); solver_s = ref [];
    phases = Array.make 4 0.; minor = 0.; prof_rounds = 0; prof_jobs = 0;
    prof_reconfigs = 0; prof_drops = 0;
  }

(* One pass over the grid; every run's ledger must equal the validated
   one. *)
let pass ~expected ~profile cells t =
  List.iter2
    (fun cell want ->
      let t0 = now_ns () in
      let got, result = run_cell ~profile cell in
      let dt = now_ns () - t0 in
      if got <> want then
        incorrect "%s: run gave %s, validated run %s" cell.label (describe got) (describe want);
      t.wall_ns <- t.wall_ns + dt;
      t.jobs <- t.jobs + Instance.total_jobs cell.instance;
      t.rounds <- t.rounds + cell.instance.horizon;
      t.runs <- t.runs + 1;
      if cell.policy = None then t.solver_s := (float_of_int dt /. 1e9) :: !(t.solver_s);
      match result with
      | Engine_run { profile = Some p; ledger; _ } ->
          List.iteri
            (fun i (_, wall_s, words) ->
              if i < 4 then t.phases.(i) <- t.phases.(i) +. wall_s;
              t.minor <- t.minor +. words)
            (Rrs_obs.Profile.fields p);
          t.prof_rounds <- t.prof_rounds + cell.instance.horizon;
          t.prof_jobs <- t.prof_jobs + Instance.total_jobs cell.instance;
          t.prof_reconfigs <- t.prof_reconfigs + Ledger.reconfig_count ledger;
          t.prof_drops <- t.prof_drops + Ledger.drop_count ledger
      | _ -> ())
    cells expected;
  let lc, want = List.find (fun (c, _) -> c == latency_cell cells) (List.combine cells expected) in
  let got = stepped_pass lc t.lat in
  if got <> want then
    incorrect "%s: stepped run gave %s, Engine.run %s" lc.label (describe got) (describe want)

let run opts =
  let setups =
    List.init 5 (fun _ ->
        let t0 = now_ns () in
        let made = instances ~seed:opts.seed in
        (float_of_int (now_ns () - t0) /. 1e9, made))
  in
  let cells = grid (snd (List.hd setups)) in
  let expected = List.map validate cells in
  if opts.seed = default_seed then
    List.iter2
      (fun cell got ->
        match List.assoc_opt cell.label golden with
        | Some want when want = got -> ()
        | Some want ->
            incorrect "%s: %s on the default seed, recorded %s" cell.label (describe got)
              (describe want)
        | None -> incorrect "%s: no ledger recorded for the default seed" cell.label)
      cells expected;
  let expected =
    if opts.perturb then
      List.mapi (fun i o -> if i = 0 then { o with drops = o.drops + 1 } else o) expected
    else expected
  in
  let t_start = now_ns () in
  let t_end = t_start + int_of_float (opts.seconds *. 1e9) in
  let t_mid = if opts.trace then t_start + int_of_float (opts.seconds *. 5e8) else t_end in
  let plain = new_tally () and traced = new_tally () in
  while now_ns () < t_mid do
    pass ~expected ~profile:false cells plain
  done;

  while opts.trace && now_ns () < t_end do
    pass ~expected ~profile:true cells traced
  done;
  let rate t f = float_of_int f /. (float_of_int t.wall_ns /. 1e9) in
  let p99_of t =
    let lat = Vec.to_array t.lat in
    metric "round.p99_us" "us"
      (float_of_int (percentile_exn ~what:"engine round" lat 0.99) /. 1e3)
      ~note:(Printf.sprintf "(n=%d)" (Array.length lat))
  in
  let metrics =
    if not opts.trace then begin
      let lat = Vec.to_array plain.lat in
      print_line { (p99_of plain) with m_name = "round_p99_us" };
      [
        metric "setup_s" "s" (median_float (List.map fst setups)) ~note:"(median of 5)";
        metric "round_p50_us" "us"
          (float_of_int (percentile_exn ~what:"engine round" lat 0.5) /. 1e3)
          ~note:(Printf.sprintf "(n=%d)" (Array.length lat));
        metric "rounds_per_s" "1/s" (rate plain plain.rounds);
        metric "jobs_per_s" "1/s" (rate plain plain.jobs)
          ~note:(Printf.sprintf "(%d runs)" plain.runs);
      ]
    end
    else
      p99_of traced
      :: engine_metrics ~phases:traced.phases ~minor:traced.minor ~rounds:traced.prof_rounds
           ~jobs:traced.prof_jobs ~reconfigs:traced.prof_reconfigs ~drops:traced.prof_drops
      @ [
          metric "solver.var_batch_s" "s" (median_float !(traced.solver_s));
          metric "trace.overhead_pct" "%"
            (100. *. (rate plain plain.jobs -. rate traced traced.jobs) /. rate plain plain.jobs)
            ~note:"(jobs/s, untraced vs traced half)";
        ]
  in
  print_line (metric "failed_frac" "ratio" 0. ~note:"(raised runs; not scored: 0 by design)");
  (plain.runs + traced.runs, 0, metrics)
