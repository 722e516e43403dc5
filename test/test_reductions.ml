(* Reduction-layer tests: Distribute (Section 4), VarBatch (Section 5),
   and the top-level solver. *)

module Instance = Rrs_sim.Instance
module Schedule = Rrs_sim.Schedule
module Distribute = Rrs_core.Distribute
module Var_batch = Rrs_core.Var_batch
module Solver = Rrs_core.Solver
module H = Test_helpers

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ---- Distribute.transform ---- *)

let test_distribute_splits_bursts () =
  (* 10 jobs of a bound-4 color in one batch -> subcolors of sizes 4,4,2. *)
  let i =
    Instance.make ~delta:2 ~bounds:[| 4 |] ~arrivals:[ (0, [ (0, 10) ]) ] ()
  in
  let inner, parent_of = Distribute.transform i in
  check "subcolors" 3 (Instance.num_colors inner);
  check_bool "rate limited" true (Instance.is_rate_limited inner);
  check "job count preserved" 10 (Instance.total_jobs inner);
  Alcotest.(check (array int)) "parents" [| 0; 0; 0 |] parent_of;
  Alcotest.(check (list int))
    "chunk sizes" [ 4; 4; 2 ]
    (List.map (fun c -> Instance.jobs_of_color inner c) [ 0; 1; 2 ]);
  check "bounds inherited" 4 inner.bounds.(1)

let test_distribute_identity_when_rate_limited () =
  let i =
    Instance.make ~delta:2 ~bounds:[| 4; 2 |]
      ~arrivals:[ (0, [ (0, 3); (1, 2) ]); (4, [ (0, 4) ]) ]
      ()
  in
  let inner, parent_of = Distribute.transform i in
  check "no extra subcolors" 2 (Instance.num_colors inner);
  Alcotest.(check (array int)) "identity parents" [| 0; 1 |] parent_of;
  check "jobs preserved" (Instance.total_jobs i) (Instance.total_jobs inner)

let test_distribute_rejects_unbatched () =
  let i = Instance.make ~delta:1 ~bounds:[| 4 |] ~arrivals:[ (1, [ (0, 1) ]) ] () in
  match Distribute.transform i with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected rejection"

let prop_distribute_transform_sound =
  QCheck2.Test.make ~name:"distribute: transform is rate-limited & job-preserving"
    ~count:60 H.gen_batched (fun instance ->
      let inner, parent_of = Distribute.transform instance in
      Instance.is_rate_limited inner
      && Instance.total_jobs inner = Instance.total_jobs instance
      && Array.length parent_of = Instance.num_colors inner
      (* per-parent job totals preserved *)
      && List.for_all
           (fun parent ->
             let subtotal = ref 0 in
             Array.iteri
               (fun sub p ->
                 if p = parent then
                   subtotal := !subtotal + Instance.jobs_of_color inner sub)
               parent_of;
             !subtotal = Instance.jobs_of_color instance parent)
           (List.init (Instance.num_colors instance) Fun.id))

(* Lemma 4.2: the schedule replayed onto the original instance costs at
   most the inner run on the transformed one, and executes (so drops)
   exactly the inner run's jobs. *)
let outer_at_most_inner pipeline instance =
  match Solver.solve ~pipeline ~n:8 instance with
  | Error e -> QCheck2.Test.fail_report e
  | Ok { schedule; cost; inner; _ } ->
      Schedule.validate schedule = Ok ()
      && cost <= Rrs_sim.Ledger.total_cost inner.ledger
      && Schedule.exec_count schedule = Rrs_sim.Ledger.exec_count inner.ledger
      && Schedule.drop_count schedule = Rrs_sim.Ledger.drop_count inner.ledger

let prop_distribute_outer_at_most_inner =
  QCheck2.Test.make ~name:"distribute: outer cost <= inner cost (Lemma 4.2)"
    ~count:60 H.gen_batched (outer_at_most_inner Solver.Distributed)

(* ---- Var_batch ---- *)

let test_effective_bound () =
  Alcotest.(check (list int))
    "effective bounds"
    [ 1; 1; 1; 2; 2; 2; 4; 4; 8; 8 ]
    (List.map Var_batch.effective_bound [ 1; 2; 3; 4; 5; 7; 8; 9; 16; 17 ])

let test_varbatch_transform_delays () =
  (* A bound-8 job arriving at round 3: q = 4, delayed to round 4 with
     bound 4; deadline 8 <= original deadline 11. *)
  let i = Instance.make ~delta:1 ~bounds:[| 8 |] ~arrivals:[ (3, [ (0, 1) ]) ] () in
  let batched = Var_batch.transform i in
  check_bool "batched" true (Instance.is_batched batched);
  check "new bound" 4 batched.bounds.(0);
  Alcotest.(check (list (pair int (list (pair int int)))))
    "delayed arrival"
    [ (4, [ (0, 1) ]) ]
    (Instance.nonempty_arrivals batched)

let test_varbatch_bound_one_passthrough () =
  let i = Instance.make ~delta:1 ~bounds:[| 1 |] ~arrivals:[ (3, [ (0, 2) ]) ] () in
  let batched = Var_batch.transform i in
  Alcotest.(check (list (pair int (list (pair int int)))))
    "unchanged"
    [ (3, [ (0, 2) ]) ]
    (Instance.nonempty_arrivals batched)

let prop_varbatch_transform_feasible =
  QCheck2.Test.make
    ~name:"varbatch: delayed windows sit inside original windows" ~count:60
    H.gen_unbatched (fun instance ->
      let batched = Var_batch.transform instance in
      Instance.is_batched batched
      && Instance.bounds_pow2 batched
      && Instance.total_jobs batched = Instance.total_jobs instance
      && Array.for_all2
           (fun q d -> q >= 1 && (d = 1 || 2 * q <= d))
           batched.bounds instance.bounds)

let prop_varbatch_schedule_valid =
  QCheck2.Test.make ~name:"varbatch: end-to-end schedule validates on original"
    ~count:40 H.gen_unbatched (fun instance ->
      match Solver.solve ~pipeline:Var_batched ~n:8 instance with
      | Error e -> QCheck2.Test.fail_report e
      | Ok { schedule; _ } ->
          Schedule.validate schedule = Ok ()
          (* every executed job is executed within its original window:
             implied by validation, but also check drop conservation *)
          && Schedule.drop_count schedule + Schedule.exec_count schedule
             = Instance.total_jobs instance)

let prop_varbatch_outer_at_most_inner =
  QCheck2.Test.make ~name:"varbatch: outer cost <= inner cost, same executions"
    ~count:40 H.gen_unbatched (outer_at_most_inner Solver.Var_batched)

(* ---- Solver ---- *)

let test_solver_classification () =
  let rl =
    Instance.make ~delta:1 ~bounds:[| 2 |] ~arrivals:[ (0, [ (0, 2) ]) ] ()
  in
  let batched =
    Instance.make ~delta:1 ~bounds:[| 2 |] ~arrivals:[ (0, [ (0, 5) ]) ] ()
  in
  let unbatched =
    Instance.make ~delta:1 ~bounds:[| 2 |] ~arrivals:[ (1, [ (0, 1) ]) ] ()
  in
  let odd = Instance.make ~delta:1 ~bounds:[| 6 |] ~arrivals:[ (0, [ (0, 1) ]) ] () in
  Alcotest.(check string) "rl" "direct" (Solver.pipeline_to_string (Solver.classify rl));
  Alcotest.(check string) "batched" "distribute"
    (Solver.pipeline_to_string (Solver.classify batched));
  Alcotest.(check string) "unbatched" "varbatch"
    (Solver.pipeline_to_string (Solver.classify unbatched));
  Alcotest.(check string) "non-pow2" "varbatch"
    (Solver.pipeline_to_string (Solver.classify odd))

let test_solver_rejects_inapplicable () =
  let unbatched =
    Instance.make ~delta:1 ~bounds:[| 2 |] ~arrivals:[ (1, [ (0, 1) ]) ] ()
  in
  match Solver.solve ~pipeline:Solver.Direct_lru_edf ~n:4 unbatched with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected pipeline rejection"

let prop_solver_valid_everywhere =
  QCheck2.Test.make ~name:"solver: validated schedule on every input class"
    ~count:40
    QCheck2.Gen.(oneof [ H.gen_rate_limited; H.gen_batched; H.gen_unbatched ])
    (fun instance ->
      match Solver.solve ~n:8 instance with
      | Error e -> QCheck2.Test.fail_report e
      | Ok outcome ->
          Schedule.validate outcome.schedule = Ok ()
          && outcome.cost
             = (instance.Instance.delta * outcome.reconfig_count)
               + outcome.drop_count)

let prop_solver_forced_pipelines_agree_on_cost_model =
  (* Any applicable pipeline must produce a valid schedule; costs can
     differ but drops+execs must account for all jobs. *)
  QCheck2.Test.make ~name:"solver: forced pipelines all feasible on rate-limited"
    ~count:30 H.gen_rate_limited (fun instance ->
      List.for_all
        (fun pipeline ->
          match Solver.solve ~pipeline ~n:8 instance with
          | Error e -> QCheck2.Test.fail_report e
          | Ok outcome ->
              Schedule.validate outcome.schedule = Ok ()
              && Schedule.exec_count outcome.schedule + outcome.drop_count
                 = Instance.total_jobs instance)
        [ Solver.Direct_lru_edf; Solver.Distributed; Solver.Var_batched ])

let quick name f = Alcotest.test_case name `Quick f
let prop p = QCheck_alcotest.to_alcotest p

let suite =
  [
    ( "core.distribute",
      [
        quick "splits bursts into subcolors" test_distribute_splits_bursts;
        quick "identity on rate-limited input" test_distribute_identity_when_rate_limited;
        quick "rejects unbatched input" test_distribute_rejects_unbatched;
        prop prop_distribute_transform_sound;
        prop prop_distribute_outer_at_most_inner;
      ] );
    ( "core.var_batch",
      [
        quick "effective bounds" test_effective_bound;
        quick "transform delays into half-blocks" test_varbatch_transform_delays;
        quick "bound-1 passthrough" test_varbatch_bound_one_passthrough;
        prop prop_varbatch_transform_feasible;
        prop prop_varbatch_schedule_valid;
        prop prop_varbatch_outer_at_most_inner;
      ] );
    ( "core.solver",
      [
        quick "classification" test_solver_classification;
        quick "rejects inapplicable pipeline" test_solver_rejects_inapplicable;
        prop prop_solver_valid_everywhere;
        prop prop_solver_forced_pipelines_agree_on_cost_model;
      ] );
  ]
