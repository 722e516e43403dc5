(* Shared helpers for the suites: random instance generators (as QCheck2
   generators over seeds/parameters) and policy spying. *)

module Instance = Rrs_sim.Instance
module Engine = Rrs_sim.Engine
module Ledger = Rrs_sim.Ledger
module Schedule = Rrs_sim.Schedule

(* Small rate-limited, power-of-two-bound instances (the Section 3 input
   class). *)
let gen_rate_limited : Instance.t QCheck2.Gen.t =
  QCheck2.Gen.(
    let* seed = int_bound 10_000 in
    let* colors = int_range 2 10 in
    let* delta = int_range 1 6 in
    let* load = float_range 0.1 1.2 in
    let* horizon = int_range 16 96 in
    return
      (Rrs_workload.Random_workloads.uniform ~seed ~colors ~delta
         ~bound_log_range:(0, 4) ~horizon ~load ~rate_limited:true ()))

(* Batched (not necessarily rate-limited) instances for Distribute. *)
let gen_batched : Instance.t QCheck2.Gen.t =
  QCheck2.Gen.(
    let* seed = int_bound 10_000 in
    let* colors = int_range 2 8 in
    let* delta = int_range 1 6 in
    let* load = float_range 0.5 4.0 in
    let* horizon = int_range 16 64 in
    return
      (Rrs_workload.Random_workloads.uniform ~seed ~colors ~delta
         ~bound_log_range:(0, 4) ~horizon ~load ~rate_limited:false ()))

(* Fully general instances (arbitrary bounds, unbatched arrivals). *)
let gen_unbatched : Instance.t QCheck2.Gen.t =
  QCheck2.Gen.(
    let* seed = int_bound 10_000 in
    let* colors = int_range 2 8 in
    let* delta = int_range 1 6 in
    let* load = float_range 0.1 1.0 in
    let* horizon = int_range 16 64 in
    let* lo = int_range 1 6 in
    let* hi = int_range lo 24 in
    return
      (Rrs_workload.Random_workloads.unbatched ~seed ~colors ~delta
         ~bound_range:(lo, hi) ~horizon ~load ()))

(* Tiny instances where brute force is affordable. *)
let gen_tiny : Instance.t QCheck2.Gen.t =
  QCheck2.Gen.(
    let* seed = int_bound 10_000 in
    let* colors = int_range 1 3 in
    let* delta = int_range 1 3 in
    let* load = float_range 0.2 1.5 in
    let* horizon = int_range 4 10 in
    return
      (Rrs_workload.Random_workloads.uniform ~seed ~colors ~delta
         ~bound_log_range:(0, 2) ~horizon ~load ~rate_limited:true ()))

(* Instances at the benchmark sweep's shape: 16-256 colors, uniform or
   Zipf arrivals, and n in {8, 16, 32, 64}, so every cached set holds
   several colors and the order of the sticky sets is exercised. *)
let gen_sweep_shape : (Instance.t * int) QCheck2.Gen.t =
  QCheck2.Gen.(
    let* seed = int_bound 10_000 in
    let* colors = int_range 16 256 in
    let* n = oneofl [ 8; 16; 32; 64 ] in
    let* delta = int_range 2 8 in
    let* horizon = int_range 48 128 in
    let* zipf = bool in
    let* instance =
      if zipf then
        let* load = float_range 0.1 0.6 in
        return
          (Rrs_workload.Random_workloads.zipf ~seed ~colors ~delta
             ~bound_log_range:(1, 6) ~horizon ~load ~s:1.1 ~rate_limited:true ())
      else
        let* load = float_range 0.1 1.0 in
        return
          (Rrs_workload.Random_workloads.uniform ~seed ~colors ~delta
             ~bound_log_range:(1, 5) ~horizon ~load ~rate_limited:true ())
    in
    return (instance, n))

(* Every engine-drivable policy of the repository, each paired with its
   reference model (test/reference_policies.ml): the registry, ΔLRU-2,
   two ΔLRU-EDF splits and Landlord (unit drop costs). *)
let policy_pairs (instance : Instance.t) :
    ((module Rrs_sim.Policy.POLICY) * (module Rrs_sim.Policy.POLICY)) list =
  let drop_costs = Array.make (Array.length instance.Instance.bounds) 1 in
  List.combine Rrs_core.Policies.all Reference_policies.all
  @ [
      ((module Rrs_core.Policy_lru_k), (module Reference_policies.Policy_lru_k));
      (Rrs_core.Lru_edf_core.with_share 0.25, Reference_policies.Lru_edf_core.with_share 0.25);
      (Rrs_core.Lru_edf_core.with_share 0.75, Reference_policies.Lru_edf_core.with_share 0.75);
      ( Rrs_uniform.Landlord.policy ~drop_costs,
        Reference_policies.Landlord.policy ~drop_costs );
    ]

(* Run a policy and return (ledger, stats, validated schedule). Fails the
   test on validation errors. *)
let run_validated ?speed ~n ~policy instance =
  let result = Engine.run ?speed ~record_events:true ~n ~policy instance in
  let speed = match speed with Some s -> s | None -> 1 in
  let schedule = Schedule.of_run ~instance ~n ~speed result.ledger in
  (match Schedule.validate schedule with
  | Ok () -> ()
  | Error errors ->
      Alcotest.failf "invalid schedule for %s: %s" instance.Instance.name
        (String.concat "; "
           (List.filteri (fun i _ -> i < 3) errors)));
  (result, schedule)

(* Wrap a policy to observe the targets it produces each mini-round. *)
module Spy (P : Rrs_sim.Policy.POLICY) = struct
  type t = {
    inner : P.t;
    mutable max_distinct : int;
    mutable replication_violations : int; (* colors not in exactly [copies] locations *)
    mutable observations : int;
    copies : int ref;
  }

  let expected_copies = ref 2
  let name = P.name ^ "+spy"

  let create ~n ~delta ~bounds =
    {
      inner = P.create ~n ~delta ~bounds;
      max_distinct = 0;
      replication_violations = 0;
      observations = 0;
      copies = expected_copies;
    }

  let on_drop t ~round ~dropped = P.on_drop t.inner ~round ~dropped
  let on_arrival t ~round ~request = P.on_arrival t.inner ~round ~request

  let reconfigure t view =
    let target = P.reconfigure t.inner view in
    let counts = Hashtbl.create 16 in
    Array.iter
      (function
        | Some c ->
            Hashtbl.replace counts c
              (1 + try Hashtbl.find counts c with Not_found -> 0)
        | None -> ())
      target;
    t.max_distinct <- max t.max_distinct (Hashtbl.length counts);
    Hashtbl.iter
      (fun _ k ->
        if k <> !(t.copies) then
          t.replication_violations <- t.replication_violations + 1)
      counts;
    t.observations <- t.observations + 1;
    target

  let stats t =
    ("spy_max_distinct", t.max_distinct)
    :: ("spy_replication_violations", t.replication_violations)
    :: ("spy_observations", t.observations)
    :: P.stats t.inner

  (* The spy's own counters are observational; only the inner state
     travels. *)
  let serialize t = P.serialize t.inner
  let deserialize t blob = P.deserialize t.inner blob
end

let stat stats key =
  match List.assoc_opt key stats with
  | Some v -> v
  | None -> Alcotest.failf "missing stat %s" key
