(* Workload-generator tests: determinism, model conformance, adversary
   parameter validation and analytic OFF costs. *)

module Instance = Rrs_sim.Instance
module Gen = Rrs_workload.Gen
module Adversary = Rrs_workload.Adversary
module Random_workloads = Rrs_workload.Random_workloads
module Scenarios = Rrs_workload.Scenarios

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ---- Gen ---- *)

let test_gen_determinism () =
  let a = Gen.create ~seed:5 and b = Gen.create ~seed:5 in
  let xs = List.init 20 (fun _ -> Gen.int a 1000) in
  let ys = List.init 20 (fun _ -> Gen.int b 1000) in
  Alcotest.(check (list int)) "same seed, same stream" xs ys

let test_gen_ranges () =
  let rng = Gen.create ~seed:1 in
  for _ = 1 to 200 do
    let x = Gen.int_range rng ~lo:3 ~hi:7 in
    check_bool "int_range in range" true (x >= 3 && x <= 7);
    let p = Gen.pow2_range rng ~lo:2 ~hi:5 in
    check_bool "pow2 in range" true (p >= 4 && p <= 32 && p land (p - 1) = 0);
    let g = Gen.geometric rng ~p:0.5 ~cap:10 in
    check_bool "geometric capped" true (g >= 0 && g <= 10);
    let k = Gen.poisson rng ~lambda:2.0 ~cap:50 in
    check_bool "poisson capped" true (k >= 0 && k <= 50)
  done

let test_gen_poisson_mean () =
  let rng = Gen.create ~seed:7 in
  let n = 3000 in
  let total = ref 0 in
  for _ = 1 to n do
    total := !total + Gen.poisson rng ~lambda:3.0 ~cap:100
  done;
  let mean = float_of_int !total /. float_of_int n in
  check_bool "poisson mean near lambda" true (mean > 2.6 && mean < 3.4)

let test_gen_errors () =
  let rng = Gen.create ~seed:1 in
  check_bool "choice empty raises" true
    (match Gen.choice rng [] with exception Invalid_argument _ -> true | _ -> false);
  check_bool "bad geometric p" true
    (match Gen.geometric rng ~p:0.0 ~cap:3 with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* ---- Random workloads conform to their declared class ---- *)

let test_uniform_rate_limited () =
  let i =
    Random_workloads.uniform ~seed:11 ~colors:6 ~delta:3 ~bound_log_range:(0, 4)
      ~horizon:128 ~load:1.5 ~rate_limited:true ()
  in
  check_bool "rate limited" true (Instance.is_rate_limited i);
  check_bool "pow2" true (Instance.bounds_pow2 i);
  check_bool "nonempty" true (Instance.total_jobs i > 0)

let test_uniform_unlimited_can_burst () =
  let i =
    Random_workloads.uniform ~seed:11 ~colors:6 ~delta:3 ~bound_log_range:(0, 3)
      ~horizon:256 ~load:3.0 ~rate_limited:false ()
  in
  check_bool "batched" true (Instance.is_batched i);
  check_bool "bursts exceed bounds somewhere" true (not (Instance.is_rate_limited i))

let test_generators_deterministic () =
  let make () =
    Random_workloads.bursty ~seed:9 ~colors:5 ~delta:2 ~bound_log_range:(1, 3)
      ~horizon:64 ~load:0.8 ~churn:0.3 ~rate_limited:true ()
  in
  let a = make () and b = make () in
  Alcotest.(check string) "identical traces" (Rrs_sim.Trace.to_string a)
    (Rrs_sim.Trace.to_string b)

let test_zipf_skew () =
  let i =
    Random_workloads.zipf ~seed:3 ~colors:8 ~delta:2 ~bound_log_range:(2, 2)
      ~horizon:512 ~load:0.5 ~s:1.5 ~rate_limited:false ()
  in
  let hot = Instance.jobs_of_color i 0 in
  let cold = Instance.jobs_of_color i 7 in
  check_bool "rank-1 color much hotter than rank-8" true (hot > 2 * cold)

let test_unbatched_is_unbatched () =
  let i =
    Random_workloads.unbatched ~seed:4 ~colors:5 ~delta:2 ~bound_range:(3, 17)
      ~horizon:64 ~load:0.5 ()
  in
  check_bool "jobs exist" true (Instance.total_jobs i > 0);
  (* Bounds include non-powers of two by construction (range 3..17). *)
  check_bool "not classified rate-limited+pow2" true
    (not (Instance.bounds_pow2 i) || not (Instance.is_batched i))

(* ---- Scenarios ---- *)

let test_datacenter_shape () =
  let i = Scenarios.datacenter ~seed:2 ~services:9 ~delta:4 ~phases:3 ~phase_length:64 () in
  check_bool "batched" true (Instance.is_batched i);
  check_bool "rate limited" true (Instance.is_rate_limited i);
  check "tiers" 3
    (List.length
       (List.sort_uniq compare (Array.to_list i.bounds)));
  check_bool "busy" true (Instance.total_jobs i > 50)

let test_router_shape () =
  let i = Scenarios.router ~seed:2 ~classes:8 ~delta:4 ~horizon:256 ~utilization:0.7 ~n_ref:4 () in
  check_bool "rate limited" true (Instance.is_rate_limited i);
  check_bool "busy" true (Instance.total_jobs i > 100);
  (* Aggregate load should be in the ballpark of utilization * n_ref *)
  let per_round = float_of_int (Instance.total_jobs i) /. 256.0 in
  check_bool "load near target" true (per_round > 0.5 && per_round < 6.0)

(* ---- Adversaries ---- *)

let test_adversary_parameter_validation () =
  let invalid f = match f () with
    | exception Invalid_argument _ -> true
    | (_ : Adversary.lower_bound_input) -> false
  in
  check_bool "lru_killer needs 2^(j+1) > n*delta" true
    (invalid (fun () -> Adversary.lru_killer ~n:8 ~delta:8 ~j:3 ~k:9));
  check_bool "lru_killer needs 2^k > 2^(j+1)" true
    (invalid (fun () -> Adversary.lru_killer ~n:4 ~delta:1 ~j:4 ~k:5));
  check_bool "edf_killer needs delta > n" true
    (invalid (fun () -> Adversary.edf_killer ~n:8 ~delta:8 ~j:4 ~k:5));
  check_bool "edf_killer needs 2^j > delta" true
    (invalid (fun () -> Adversary.edf_killer ~n:4 ~delta:16 ~j:3 ~k:6))

let test_lru_killer_is_rate_limited () =
  let adv = Adversary.lru_killer ~n:8 ~delta:2 ~j:5 ~k:8 in
  check_bool "rate limited" true (Instance.is_rate_limited adv.instance);
  check_bool "pow2" true (Instance.bounds_pow2 adv.instance);
  (* Long color: exactly 2^k jobs; short colors: delta per batch. *)
  check "long jobs" 256 (Instance.jobs_of_color adv.instance 4);
  check "short jobs" (2 * (256 / 32)) (Instance.jobs_of_color adv.instance 0)

let test_edf_killer_is_rate_limited () =
  let adv = Adversary.edf_killer ~n:4 ~delta:5 ~j:3 ~k:6 in
  check_bool "rate limited" true (Instance.is_rate_limited adv.instance);
  (* Long color p gets 2^(k+p-1) jobs. *)
  check "long color 1" 32 (Instance.jobs_of_color adv.instance 1);
  check "long color 2" 64 (Instance.jobs_of_color adv.instance 2)

let test_off_costs_are_achievable () =
  (* The analytic OFF cost must be >= every valid lower bound with m=1
     (it is the cost of one concrete schedule, hence >= OPT >= LB). *)
  let check_adv (adv : Adversary.lower_bound_input) =
    let lb = Rrs_offline.Lower_bounds.combined ~m:1 adv.instance in
    check_bool (adv.instance.name ^ ": off >= lb") true (adv.off_cost >= lb)
  in
  check_adv (Adversary.lru_killer ~n:4 ~delta:2 ~j:4 ~k:7);
  check_adv (Adversary.edf_killer ~n:4 ~delta:5 ~j:3 ~k:5)

let test_motivation_scenario () =
  let i =
    Adversary.motivation ~seed:3 ~short_colors:4 ~short_bound_log:3
      ~long_bound_log:8 ~delta:3 ~burst_probability:0.4 ()
  in
  check_bool "batched" true (Instance.is_batched i);
  check "background backlog" 256 (Instance.jobs_of_color i 4)

(* ---- Spec parsing ---- *)

let test_spec_kinds_all_parse () =
  List.iter
    (fun kind ->
      match Rrs_workload.Spec.parse kind with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "default %s failed: %s" kind e)
    Rrs_workload.Spec.kinds

let test_spec_parameters_apply () =
  match Rrs_workload.Spec.parse "uniform:colors=3,delta=7,horizon=32,seed=2" with
  | Error e -> Alcotest.fail e
  | Ok i ->
      check "colors" 3 (Instance.num_colors i);
      check "delta" 7 i.delta

let test_spec_errors () =
  let is_error s =
    check_bool s true (Result.is_error (Rrs_workload.Spec.parse s))
  in
  is_error "frobnicate:colors=3";
  is_error "uniform:colors";
  is_error "uniform:colors=x";
  is_error "uniform:unknownkey=3";
  is_error "lru-killer:n=8,delta=100,j=3,k=9" (* violates 2^(j+1) > n delta *)

let test_spec_determinism () =
  let parse s =
    match Rrs_workload.Spec.parse s with Ok i -> i | Error e -> Alcotest.fail e
  in
  Alcotest.(check string)
    "same spec, same trace"
    (Rrs_sim.Trace.to_string (parse "zipf:colors=6,seed=9"))
    (Rrs_sim.Trace.to_string (parse "zipf:colors=6,seed=9"))

(* ---- Equivalence with the list route of {!Reference_workloads} ---- *)

(* A run of [Gen.poisson], [Gen.poisson_draws], [Gen.geometric] and
   [Gen.flip] calls with random parameters returns what the recursive
   definitions (and [Random.State.float]) returned and leaves the RNG
   where they left it (the next draws agree). *)
let prop_gen_matches_reference =
  QCheck2.Test.make
    ~name:"gen: poisson and geometric equal the recursive definitions" ~count:500
    QCheck2.Gen.(
      pair (int_range 0 100_000)
        (list_size (int_range 1 20)
           (oneof
              [
                map2 (fun lambda cap -> `Poisson (lambda, cap)) (float_range 0.0 40.0) (int_range (-2) 200);
                map3
                  (fun lambda cap n -> `Poisson_draws (lambda, cap, n))
                  (float_range 0.0 40.0) (int_range (-2) 200) (int_range 0 4);
                map2 (fun p cap -> `Geometric (p, cap)) (float_range 0.01 1.0) (int_range (-2) 40);
                map (fun p -> `Flip p) (float_range 0.0 1.0);
              ])))
    (fun (seed, calls) ->
      let a = Gen.create ~seed and b = Gen.create ~seed in
      let new_draw = function
        | `Poisson (lambda, cap) -> [ Gen.poisson a ~lambda ~cap ]
        | `Poisson_draws (lambda, cap, n) ->
            let draw = Gen.poisson_draws a ~lambda ~cap in
            List.init n (fun _ -> draw ())
        | `Geometric (p, cap) -> [ Gen.geometric a ~p ~cap ]
        | `Flip p -> [ Bool.to_int (Gen.flip a ~p) ]
      in
      let old_draw = function
        | `Poisson (lambda, cap) -> [ Reference_workloads.poisson b ~lambda ~cap ]
        | `Poisson_draws (lambda, cap, n) ->
            List.init n (fun _ -> Reference_workloads.poisson b ~lambda ~cap)
        | `Geometric (p, cap) -> [ Reference_workloads.geometric b ~p ~cap ]
        | `Flip p -> [ Bool.to_int (Gen.float b 1.0 < p) ]
      in
      List.for_all (fun call -> new_draw call = old_draw call) calls
      && List.init 4 (fun _ -> Gen.int a 1_000_000) = List.init 4 (fun _ -> Gen.int b 1_000_000))

let fields (i : Instance.t) = (i.name, i.bounds, i.requests, i.horizon)

(* Small batched shapes: a seed, colors, delta, a power-of-two bound
   range, a horizon (empty ones included) and a load. *)
let gen_batched_shape =
  QCheck2.Gen.(
    let* seed = int_range 0 100_000 in
    let* colors = int_range 1 12 in
    let* delta = int_range 1 6 in
    let* lo = int_range 0 3 in
    let* hi = int_range lo (lo + 3) in
    let* horizon = int_range 0 300 in
    let* load = float_range 0.0 2.0 in
    let* rate_limited = bool in
    return (seed, colors, delta, (lo, hi), horizon, load, rate_limited))

let print_batched_shape (seed, colors, delta, (lo, hi), horizon, load, rate_limited) =
  Printf.sprintf "seed=%d colors=%d delta=%d bounds=2^%d..2^%d horizon=%d load=%h rate_limited=%b"
    seed colors delta lo hi horizon load rate_limited

let prop_uniform_matches_reference =
  QCheck2.Test.make ~name:"random: uniform equals the list route" ~count:300
    ~print:print_batched_shape gen_batched_shape
    (fun (seed, colors, delta, bound_log_range, horizon, load, rate_limited) ->
      fields
        (Random_workloads.uniform ~seed ~colors ~delta ~bound_log_range ~horizon ~load
           ~rate_limited ())
      = Reference_workloads.uniform ~seed ~colors ~delta ~bound_log_range ~horizon ~load
          ~rate_limited ())

let prop_bursty_matches_reference =
  QCheck2.Test.make ~name:"random: bursty equals the list route" ~count:300
    ~print:(fun (shape, churn) -> Printf.sprintf "%s churn=%h" (print_batched_shape shape) churn)
    QCheck2.Gen.(pair gen_batched_shape (float_range 0.0 1.0))
    (fun ((seed, colors, delta, bound_log_range, horizon, load, rate_limited), churn) ->
      fields
        (Random_workloads.bursty ~seed ~colors ~delta ~bound_log_range ~horizon ~load
           ~churn ~rate_limited ())
      = Reference_workloads.bursty ~seed ~colors ~delta ~bound_log_range ~horizon ~load
          ~churn ~rate_limited ())

let prop_zipf_matches_reference =
  QCheck2.Test.make ~name:"random: zipf equals the list route" ~count:300
    ~print:(fun (shape, s) -> Printf.sprintf "%s s=%h" (print_batched_shape shape) s)
    QCheck2.Gen.(pair gen_batched_shape (float_range 0.5 2.0))
    (fun ((seed, colors, delta, bound_log_range, horizon, load, rate_limited), s) ->
      fields
        (Random_workloads.zipf ~seed ~colors ~delta ~bound_log_range ~horizon ~load ~s
           ~rate_limited ())
      = Reference_workloads.zipf ~seed ~colors ~delta ~bound_log_range ~horizon ~load ~s
          ~rate_limited ())

let prop_unbatched_matches_reference =
  QCheck2.Test.make ~name:"random: unbatched equals the list route" ~count:300
    ~print:(fun (seed, colors, delta, (lo, hi), horizon, load) ->
      Printf.sprintf "seed=%d colors=%d delta=%d bounds=%d..%d horizon=%d load=%h" seed
        colors delta lo hi horizon load)
    QCheck2.Gen.(
      let* seed = int_range 0 100_000 in
      let* colors = int_range 1 12 in
      let* delta = int_range 1 6 in
      let* lo = int_range 1 8 in
      let* hi = int_range lo (lo + 10) in
      let* horizon = int_range 0 300 in
      let* load = float_range 0.02 1.0 in
      return (seed, colors, delta, (lo, hi), horizon, load))
    (fun (seed, colors, delta, bound_range, horizon, load) ->
      fields
        (Random_workloads.unbatched ~seed ~colors ~delta ~bound_range ~horizon ~load ())
      = Reference_workloads.unbatched ~seed ~colors ~delta ~bound_range ~horizon ~load ())

let quick name f = Alcotest.test_case name `Quick f

let suite =
  [
    ( "workload.gen",
      [
        quick "determinism" test_gen_determinism;
        quick "ranges" test_gen_ranges;
        quick "poisson mean" test_gen_poisson_mean;
        quick "errors" test_gen_errors;
        QCheck_alcotest.to_alcotest prop_gen_matches_reference;
      ] );
    ( "workload.random",
      [
        quick "uniform rate-limited conformance" test_uniform_rate_limited;
        quick "unlimited bursts" test_uniform_unlimited_can_burst;
        quick "generator determinism" test_generators_deterministic;
        quick "zipf skew" test_zipf_skew;
        quick "unbatched class" test_unbatched_is_unbatched;
        QCheck_alcotest.to_alcotest prop_uniform_matches_reference;
        QCheck_alcotest.to_alcotest prop_bursty_matches_reference;
        QCheck_alcotest.to_alcotest prop_zipf_matches_reference;
        QCheck_alcotest.to_alcotest prop_unbatched_matches_reference;
      ] );
    ( "workload.scenarios",
      [
        quick "datacenter" test_datacenter_shape;
        quick "router" test_router_shape;
      ] );
    ( "workload.spec",
      [
        quick "all kinds parse with defaults" test_spec_kinds_all_parse;
        quick "parameters apply" test_spec_parameters_apply;
        quick "errors rejected" test_spec_errors;
        quick "determinism" test_spec_determinism;
      ] );
    ( "workload.adversary",
      [
        quick "parameter validation" test_adversary_parameter_validation;
        quick "lru-killer conformance" test_lru_killer_is_rate_limited;
        quick "edf-killer conformance" test_edf_killer_is_rate_limited;
        quick "off cost achievable" test_off_costs_are_achievable;
        quick "motivation scenario" test_motivation_scenario;
      ] );
  ]
