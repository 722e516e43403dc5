module Instance = Rrs_sim.Instance

let make_bounds rng ~colors ~bound_log_range:(lo, hi) =
  Array.init colors (fun _ -> Gen.pow2_range rng ~lo ~hi)

(* Colors ascending, each color's batches in round order: the draw order
   of the seed contract. [draws ~color ~bound] is called once per color
   and returns the drawer of that color's batch counts. The counts are
   kept in one array and added to the builder colors descending, so each
   round's entries come out ascending and [Instance.finish] neither
   reverses nor sorts them. *)
let batched ~name ~delta ~bounds ~horizon ~draws =
  let colors = Array.length bounds in
  let batches color = max 0 ((horizon + bounds.(color) - 1) / bounds.(color)) in
  let first = Array.make (colors + 1) 0 in
  for color = 0 to colors - 1 do
    first.(color + 1) <- first.(color) + batches color
  done;
  let counts = Array.make first.(colors) 0 in
  for color = 0 to colors - 1 do
    let draw = draws ~color ~bound:bounds.(color) in
    for slot = first.(color) to first.(color + 1) - 1 do
      counts.(slot) <- draw ()
    done
  done;
  let b = Instance.builder ~name ~delta ~bounds () in
  for color = colors - 1 downto 0 do
    let bound = bounds.(color) in
    for slot = first.(color) to first.(color + 1) - 1 do
      let count = counts.(slot) in
      if count > 0 then Instance.add b ~round:((slot - first.(color)) * bound) ~color ~count
    done
  done;
  Instance.finish b

let cap ~rate_limited ~bound count = if rate_limited then min count bound else count

(* One color's batch counts: Poisson with mean [lambda], capped. *)
let poisson_draws rng ~rate_limited ~bound ~lambda =
  let draw = Gen.poisson_draws rng ~lambda ~cap:(4 * bound) in
  fun () -> cap ~rate_limited ~bound (draw ())

let uniform ~seed ~colors ~delta ~bound_log_range ~horizon ~load ~rate_limited () =
  let rng = Gen.create ~seed in
  let bounds = make_bounds rng ~colors ~bound_log_range in
  batched
    ~name:(Printf.sprintf "uniform(c=%d,delta=%d,load=%.2f,seed=%d)" colors delta load seed)
    ~delta ~bounds ~horizon
    ~draws:(fun ~color:_ ~bound ->
      poisson_draws rng ~rate_limited ~bound ~lambda:(load *. float_of_int bound))

let bursty ~seed ~colors ~delta ~bound_log_range ~horizon ~load ~churn
    ~rate_limited () =
  let rng = Gen.create ~seed in
  let bounds = make_bounds rng ~colors ~bound_log_range in
  let on = Array.init colors (fun _ -> Gen.flip rng ~p:0.5) in
  batched
    ~name:
      (Printf.sprintf "bursty(c=%d,delta=%d,load=%.2f,churn=%.2f,seed=%d)" colors
         delta load churn seed)
    ~delta ~bounds ~horizon
    ~draws:(fun ~color ~bound ->
      let draw = poisson_draws rng ~rate_limited ~bound ~lambda:(load *. float_of_int bound) in
      fun () ->
        if Gen.flip rng ~p:churn then on.(color) <- not on.(color);
        if on.(color) then draw () else 0)

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
  batched
    ~name:(Printf.sprintf "zipf(c=%d,delta=%d,load=%.2f,s=%.2f,seed=%d)" colors delta load s seed)
    ~delta ~bounds ~horizon
    ~draws:(fun ~color ~bound ->
      let weight = Gen.zipf_weight ~rank:(color + 1) ~s in
      let lambda =
        load *. float_of_int bound *. float_of_int colors *. weight /. total_weight
      in
      poisson_draws rng ~rate_limited ~bound ~lambda)

(* Each color's arrivals are added as drawn, colors ascending, so a round
   shared by several colors is reversed once by [Instance.finish]. *)
let unbatched ~seed ~colors ~delta ~bound_range:(lo, hi) ~horizon ~load () =
  let rng = Gen.create ~seed in
  let bounds = Array.init colors (fun _ -> Gen.int_range rng ~lo ~hi) in
  let b =
    Instance.builder
      ~name:(Printf.sprintf "unbatched(c=%d,delta=%d,load=%.2f,seed=%d)" colors delta load seed)
      ~delta ~bounds ()
  in
  for color = 0 to colors - 1 do
    let round = ref (Gen.int rng (max 1 (int_of_float (1.0 /. load)))) in
    while !round < horizon do
      let count = 1 + Gen.geometric rng ~p:0.5 ~cap:7 in
      Instance.add b ~round:!round ~color ~count;
      (* Geometric gap targeting [load] jobs per round per color. *)
      let mean_gap = max 1 (int_of_float (float_of_int count /. load)) in
      round := !round + 1 + Gen.int rng (2 * mean_gap)
    done
  done;
  Instance.finish b
