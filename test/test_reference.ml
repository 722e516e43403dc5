(* The production policies against their reference model
   (reference_policies.ml: the implementation before per-round work was
   made event-driven), and the determinism contract: a schedule depends
   on the input only, never on the process's hash seed.

   The reference model is the oracle for the event-driven rewrite: on
   instances at the benchmark sweep's shape, every policy must emit a
   byte-identical rrs-events/2 stream, the same ledger, stats and final
   assignment, and the same end-of-run snapshot (policy blob included). *)

module Instance = Rrs_sim.Instance
module Engine = Rrs_sim.Engine
module Ledger = Rrs_sim.Ledger
module Stepper = Rrs_sim.Stepper
module Event_sink = Rrs_sim.Event_sink
module RW = Rrs_workload.Random_workloads
module H = Test_helpers

let config ~n ~speed (instance : Instance.t) =
  {
    Stepper.name = instance.name;
    delta = instance.delta;
    bounds = instance.bounds;
    n;
    speed;
    horizon = instance.horizon;
  }

type outcome = {
  stream : string; (* the full rrs-events/2 JSONL *)
  snapshot : string; (* checkpointed at the horizon: carries the policy blob *)
  stats : (string * int) list;
  final_assignment : Rrs_sim.Types.color option array;
}

let run ?faults ~n ~speed ~policy (instance : Instance.t) =
  let path = Filename.temp_file "rrs_reference" ".jsonl" in
  let channel = open_out path in
  let stepper =
    Stepper.create ?faults ~sink:(Event_sink.Jsonl channel)
      ~checkpoint_every:(max 1 instance.horizon) ~policy
      (config ~n ~speed instance)
  in
  for round = 0 to instance.horizon - 1 do
    Stepper.feed stepper instance.requests.(round);
    Stepper.step stepper
  done;
  let snapshot = Stepper.snapshot stepper in
  let result = Stepper.finish stepper in
  close_out channel;
  let stream = In_channel.with_open_bin path In_channel.input_all in
  Sys.remove path;
  { stream; snapshot; stats = result.stats; final_assignment = result.final_assignment }

(* Every policy pair agrees on [instance]; reports the first that does
   not. *)
let agree ?faults ~n ~speed instance =
  List.for_all
    (fun ((policy, reference) : (module Rrs_sim.Policy.POLICY) * _) ->
      let (module P) = policy in
      let got = run ?faults ~n ~speed ~policy instance in
      let want = run ?faults ~n ~speed ~policy:reference instance in
      got = want
      || QCheck2.Test.fail_reportf "%s differs from its reference on %s (n=%d, speed=%d)%s"
           P.name instance.Instance.name n speed
           (if got.stream <> want.stream then ": event streams differ"
            else if got.snapshot <> want.snapshot then ": snapshots differ"
            else if got.stats <> want.stats then ": stats differ"
            else ": final assignments differ"))
    (H.policy_pairs instance)

let prop_matches_reference =
  QCheck2.Test.make
    ~name:
      "every policy = its reference model at the sweep shape (streams, \
       ledgers, assignments, blobs)"
    ~count:10
    QCheck2.Gen.(triple H.gen_sweep_shape (int_range 1 2) (opt (int_bound 10_000)))
    (fun ((instance, n), speed, fault_seed) ->
      (* Half the cases crash locations and fail reconfigurations, so
         placement also runs around offline locations. *)
      let faults =
        Option.map
          (fun seed ->
            Rrs_workload.Fault_gen.random ~seed ~n ~horizon:instance.horizon
              ~crash_density:0.1 ~reconfig_fail_rate:0.02 ())
          fault_seed
      in
      agree ?faults ~n ~speed instance)

(* The two benchmark sweep instances themselves, shortened. *)
let test_sweep_instances_match_reference () =
  let uniform =
    RW.uniform ~seed:1 ~colors:8 ~delta:4 ~bound_log_range:(1, 4) ~horizon:2_000
      ~load:0.9 ~rate_limited:true ()
  in
  let zipf =
    RW.zipf ~seed:2 ~colors:256 ~delta:8 ~bound_log_range:(2, 6) ~horizon:400
      ~load:0.2 ~s:1.1 ~rate_limited:true ()
  in
  Alcotest.(check bool) "uniform8, n=8" true (agree ~n:8 ~speed:1 uniform);
  Alcotest.(check bool) "zipf256, n=64" true (agree ~n:64 ~speed:1 zipf)

(* ---- determinism: no dependence on the hash seed ---- *)

(* A child process with a randomized hash seed (what OCAMLRUNPARAM=R
   does to every table created afterwards) must compute this process's
   ΔLRU-EDF ledger and restore a snapshot this process wrote. The
   placement order of the sticky sets follows a Hashtbl's iteration
   order, so an unseeded table would make both depend on the seed. *)
let test_schedule_independent_of_hash_seed () =
  let instance =
    RW.zipf ~seed:5 ~colors:64 ~delta:4 ~bound_log_range:(1, 5) ~horizon:600
      ~load:0.4 ~s:1.1 ~rate_limited:true ()
  in
  let n = 16 and cut = 300 in
  let policy : (module Rrs_sim.Policy.POLICY) = (module Rrs_core.Policy_lru_edf) in
  let ledger (l : Ledger.t) =
    (Ledger.total_cost l, Ledger.reconfig_count l, Ledger.drop_count l)
  in
  let full () = ledger (Engine.run ~record_events:false ~n ~policy instance).ledger in
  let expected = full () in
  let stepper =
    Stepper.create ~record_events:false ~checkpoint_every:16 ~policy
      (config ~n ~speed:1 instance)
  in
  for round = 0 to cut - 1 do
    Stepper.feed stepper instance.requests.(round);
    Stepper.step stepper
  done;
  let snapshot = Stepper.snapshot stepper in
  match Unix.fork () with
  | 0 ->
      Hashtbl.randomize ();
      let code =
        if full () <> expected then 2
        else
          match Stepper.restore ~record_events:false ~policy snapshot with
          | Error _ -> 3
          | Ok resumed ->
              for round = cut to instance.horizon - 1 do
                Stepper.feed resumed instance.requests.(round);
                Stepper.step resumed
              done;
              if ledger (Stepper.finish resumed).ledger = expected then 0 else 4
      in
      Unix._exit code
  | child -> (
      match snd (Unix.waitpid [] child) with
      | Unix.WEXITED 0 -> ()
      | Unix.WEXITED 2 -> Alcotest.fail "randomized child computed another ledger"
      | Unix.WEXITED 3 -> Alcotest.fail "randomized child refused the snapshot"
      | Unix.WEXITED 4 -> Alcotest.fail "randomized child resumed to another ledger"
      | _ -> Alcotest.fail "randomized child died")

let suite =
  [
    ( "core.reference",
      [
        QCheck_alcotest.to_alcotest prop_matches_reference;
        Alcotest.test_case "sweep instances match the reference" `Quick
          test_sweep_instances_match_reference;
        Alcotest.test_case "schedules and restore ignore the hash seed" `Quick
          test_schedule_independent_of_hash_seed;
      ] );
  ]
