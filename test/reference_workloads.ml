(* The reference model of the seeded generators: [Random_workloads] and
   [Gen.poisson]/[Gen.geometric] as they were before the generators
   wrote into [Instance]'s round builder. Each generator drew its batch
   counts in the same order, collected them as a [(round, request)] list
   (one arrival per batch, color-major) and handed that list to
   [Instance.make], here {!Reference_instance.make}. Kept verbatim, apart
   from reading the RNG through [Gen.float] and returning the instance's
   fields as [(name, bounds, requests, horizon)], as the oracle the
   equivalence properties in [test_workload] compare the generators
   against. *)

module Gen = Rrs_workload.Gen

let geometric t ~p ~cap =
  if p <= 0.0 || p > 1.0 then invalid_arg "Gen.geometric: p out of (0, 1]";
  let rec count failures =
    if failures >= cap then cap
    else if Gen.float t 1.0 < p then failures
    else count (failures + 1)
  in
  count 0

let poisson t ~lambda ~cap =
  if lambda < 0.0 then invalid_arg "Gen.poisson: negative lambda";
  let limit = exp (-.lambda) in
  let rec draw k product =
    let product = product *. Gen.float t 1.0 in
    if product <= limit || k >= cap then min k cap else draw (k + 1) product
  in
  draw 0 1.0

let make ~name ~delta ~bounds ~arrivals () =
  let requests, horizon = Reference_instance.make ~delta ~bounds ~arrivals () in
  (name, bounds, requests, horizon)

let make_bounds rng ~colors ~bound_log_range:(lo, hi) =
  Array.init colors (fun _ -> Gen.pow2_range rng ~lo ~hi)

let batched_arrivals rng ~bounds ~horizon ~count_at =
  let arrivals = ref [] in
  Array.iteri
    (fun color bound ->
      let round = ref 0 in
      while !round < horizon do
        let count = count_at rng ~color ~bound ~round:!round in
        if count > 0 then arrivals := (!round, [ (color, count) ]) :: !arrivals;
        round := !round + bound
      done)
    bounds;
  List.rev !arrivals

let cap ~rate_limited ~bound count = if rate_limited then min count bound else count

let uniform ~seed ~colors ~delta ~bound_log_range ~horizon ~load ~rate_limited () =
  let rng = Gen.create ~seed in
  let bounds = make_bounds rng ~colors ~bound_log_range in
  let count_at rng ~color:_ ~bound ~round:_ =
    let lambda = load *. float_of_int bound in
    cap ~rate_limited ~bound (poisson rng ~lambda ~cap:(4 * bound))
  in
  let arrivals = batched_arrivals rng ~bounds ~horizon ~count_at in
  make
    ~name:(Printf.sprintf "uniform(c=%d,delta=%d,load=%.2f,seed=%d)" colors delta load seed)
    ~delta ~bounds ~arrivals ()

let bursty ~seed ~colors ~delta ~bound_log_range ~horizon ~load ~churn
    ~rate_limited () =
  let rng = Gen.create ~seed in
  let bounds = make_bounds rng ~colors ~bound_log_range in
  let on = Array.init colors (fun _ -> Gen.flip rng ~p:0.5) in
  let count_at rng ~color ~bound ~round:_ =
    if Gen.flip rng ~p:churn then on.(color) <- not on.(color);
    if not on.(color) then 0
    else
      let lambda = load *. float_of_int bound in
      cap ~rate_limited ~bound (poisson rng ~lambda ~cap:(4 * bound))
  in
  let arrivals = batched_arrivals rng ~bounds ~horizon ~count_at in
  make
    ~name:
      (Printf.sprintf "bursty(c=%d,delta=%d,load=%.2f,churn=%.2f,seed=%d)" colors
         delta load churn seed)
    ~delta ~bounds ~arrivals ()

let zipf ~seed ~colors ~delta ~bound_log_range ~horizon ~load ~s ~rate_limited () =
  let rng = Gen.create ~seed in
  let bounds = make_bounds rng ~colors ~bound_log_range in
  let total_weight =
    let sum = ref 0.0 in
    for rank = 1 to colors do
      sum := !sum +. Gen.zipf_weight ~rank ~s
    done;
    !sum
  in
  let count_at rng ~color ~bound ~round:_ =
    let weight = Gen.zipf_weight ~rank:(color + 1) ~s in
    let lambda =
      load *. float_of_int bound *. float_of_int colors *. weight /. total_weight
    in
    cap ~rate_limited ~bound (poisson rng ~lambda ~cap:(4 * bound))
  in
  let arrivals = batched_arrivals rng ~bounds ~horizon ~count_at in
  make
    ~name:(Printf.sprintf "zipf(c=%d,delta=%d,load=%.2f,s=%.2f,seed=%d)" colors delta load s seed)
    ~delta ~bounds ~arrivals ()

let unbatched ~seed ~colors ~delta ~bound_range:(lo, hi) ~horizon ~load () =
  let rng = Gen.create ~seed in
  let bounds = Array.init colors (fun _ -> Gen.int_range rng ~lo ~hi) in
  let arrivals = ref [] in
  Array.iteri
    (fun color _bound ->
      let round = ref (Gen.int rng (max 1 (int_of_float (1.0 /. load)))) in
      while !round < horizon do
        let count = 1 + geometric rng ~p:0.5 ~cap:7 in
        arrivals := (!round, [ (color, count) ]) :: !arrivals;
        (* Geometric gap targeting [load] jobs per round per color. *)
        let mean_gap = max 1 (int_of_float (float_of_int count /. load)) in
        round := !round + 1 + Gen.int rng (2 * mean_gap)
      done)
    bounds;
  make
    ~name:(Printf.sprintf "unbatched(c=%d,delta=%d,load=%.2f,seed=%d)" colors delta load seed)
    ~delta ~bounds ~arrivals:(List.rev !arrivals) ()
