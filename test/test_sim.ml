(* Simulator substrate tests: instances, job pool, ledger, engine phase
   semantics, schedule validation, rebuild, trace round-trips. *)

module Types = Rrs_sim.Types
module Instance = Rrs_sim.Instance
module Job_pool = Rrs_sim.Job_pool
module Ledger = Rrs_sim.Ledger
module Engine = Rrs_sim.Engine
module Schedule = Rrs_sim.Schedule
module Rebuild = Rrs_sim.Rebuild
module Trace = Rrs_sim.Trace

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let tiny ?(delta = 2) ?(bounds = [| 2; 4 |]) arrivals =
  Instance.make ~delta ~bounds ~arrivals ()

(* ---- Types ---- *)

let test_normalize_request () =
  Alcotest.(check (list (pair int int)))
    "merge + sort + drop zeros"
    [ (0, 3); (2, 1) ]
    (Types.normalize_request [ (2, 1); (0, 2); (0, 1); (1, 0) ]);
  Alcotest.check_raises "negative count"
    (Invalid_argument "Types.normalize_request: negative count") (fun () ->
      ignore (Types.normalize_request [ (0, -1) ]))

(* ---- Instance ---- *)

let test_instance_horizon () =
  let i = tiny [ (0, [ (0, 1) ]); (4, [ (1, 2) ]) ] in
  (* color 1 arrives at 4 with bound 4 -> deadline 8 -> horizon 9. *)
  check "horizon" 9 i.horizon;
  check "total jobs" 3 (Instance.total_jobs i);
  check "jobs of color 1" 2 (Instance.jobs_of_color i 1)

let test_instance_classification () =
  let batched = tiny [ (0, [ (0, 5) ]); (4, [ (1, 3) ]) ] in
  check_bool "batched" true (Instance.is_batched batched);
  check_bool "not rate-limited (5 > D0=2)" false (Instance.is_rate_limited batched);
  let rl = tiny [ (0, [ (0, 2) ]); (4, [ (1, 4) ]) ] in
  check_bool "rate-limited" true (Instance.is_rate_limited rl);
  let unb = tiny [ (1, [ (0, 1) ]) ] in
  check_bool "unbatched" false (Instance.is_batched unb);
  check_bool "pow2" true (Instance.bounds_pow2 batched);
  let odd = Instance.make ~delta:1 ~bounds:[| 3 |] ~arrivals:[ (0, [ (0, 1) ]) ] () in
  check_bool "non-pow2" false (Instance.bounds_pow2 odd)

let test_instance_validation_errors () =
  let expect_invalid name f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail (name ^ ": expected Invalid_argument")
  in
  expect_invalid "delta 0" (fun () ->
      Instance.make ~delta:0 ~bounds:[| 1 |] ~arrivals:[] ());
  expect_invalid "no colors" (fun () ->
      Instance.make ~delta:1 ~bounds:[||] ~arrivals:[] ());
  expect_invalid "bad bound" (fun () ->
      Instance.make ~delta:1 ~bounds:[| 0 |] ~arrivals:[] ());
  expect_invalid "negative round" (fun () ->
      Instance.make ~delta:1 ~bounds:[| 1 |] ~arrivals:[ (-1, [ (0, 1) ]) ] ());
  expect_invalid "unknown color" (fun () ->
      Instance.make ~delta:1 ~bounds:[| 1 |] ~arrivals:[ (0, [ (7, 1) ]) ] ());
  expect_invalid "short horizon" (fun () ->
      Instance.make ~delta:1 ~horizon:1 ~bounds:[| 4 |]
        ~arrivals:[ (0, [ (0, 1) ]) ] ());
  (* One round's count of a color past max_int is refused, not wrapped;
     a sum of exactly max_int is kept. *)
  let big = (max_int / 2) + 1 in
  Alcotest.check_raises "job count overflow"
    (Invalid_argument "Instance.make: job count overflow (color 1, round 2)")
    (fun () -> ignore (tiny [ (2, [ (1, big); (0, 1) ]); (2, [ (1, big) ]) ]));
  Alcotest.(check (list (pair int int)))
    "sum of max_int" [ (1, max_int) ]
    (tiny [ (2, [ (1, big) ]); (2, [ (1, max_int - big) ]) ]).requests.(2)

let test_instance_no_job_past_horizon () =
  (* Neither arrival carries a job, so neither bears on the horizon or
     the requests, wherever it falls. *)
  let i =
    Instance.make ~delta:1 ~horizon:3 ~bounds:[| 2 |]
      ~arrivals:[ (0, [ (0, 1) ]); (3, []); (7, [ (0, 0) ]) ] ()
  in
  check "explicit horizon kept" 3 i.horizon;
  Alcotest.(check (array (list (pair int int))))
    "requests" [| [ (0, 1) ]; []; [] |] i.requests;
  let i = tiny [ (9, [ (1, 0); (0, 0) ]); (0, [ (0, 2) ]) ] in
  check "derived horizon" 3 i.horizon;
  check "total jobs" 2 (Instance.total_jobs i)

(* A builder keeps what it was given: finishing it again after more
   adds gives the instance of everything added, and leaves the instance
   finished first as it was. *)
let test_builder_finish_again () =
  let b = Instance.builder ~name:"b" ~delta:2 ~bounds:[| 2; 4 |] () in
  Instance.add b ~round:2 ~color:1 ~count:1;
  Instance.add b ~round:2 ~color:0 ~count:3;
  let first = Instance.finish b in
  Instance.add b ~round:2 ~color:1 ~count:2;
  Instance.add b ~round:0 ~color:0 ~count:1;
  let second = Instance.finish b in
  Alcotest.(check (array (list (pair int int))))
    "first" [| []; []; [ (0, 3); (1, 1) ]; []; []; []; [] |] first.requests;
  Alcotest.(check (array (list (pair int int))))
    "second" [| [ (0, 1) ]; []; [ (0, 3); (1, 3) ]; []; []; []; [] |] second.requests;
  Alcotest.(check string) "name" "b" second.name

(* ---- Instance.make against its per-arrival reference ---- *)

(* Arrival lists in the shapes [Instance.make] must treat as the
   per-arrival merge of {!Reference_instance} did, apart from the two
   faults [expected_make] mends: unsorted arrivals,
   duplicate colors within one arrival and across arrivals of one round,
   zero counts, multi-color requests, explicit horizons (truncating ones
   included). A third of the cases also draw counts large enough that a
   round's sum of a color passes [max_int]; another third draw invalid
   input: negative counts and rounds, unknown colors, bad deltas and
   bounds, and empty requests past the horizon (which carry no job). *)
let gen_make_input =
  let open QCheck2.Gen in
  let* mode = oneofl [ `Clean; `Wrapping; `Invalid ] in
  let* num_colors = int_range 1 4 in
  let pick clean bad =
    if mode = `Invalid then frequency [ (10, clean); (1, bad) ] else clean
  in
  let* delta = pick (int_range 1 4) (int_range (-1) 0) in
  let* bounds = array_size (return num_colors) (pick (int_range 1 6) (int_range (-1) 0)) in
  let color =
    pick (int_range 0 (num_colors - 1))
      (oneof [ int_range (-2) (-1); int_range num_colors (num_colors + 2) ])
  in
  let count =
    let small = frequency [ (4, int_range 1 5); (1, return 0) ] in
    match mode with
    | `Wrapping -> frequency [ (2, small); (1, int_range (max_int / 3) (max_int / 2)) ]
    | `Clean | `Invalid -> pick small (int_range (-3) (-1))
  in
  let round = pick (int_range 0 8) (oneof [ int_range (-2) (-1); int_range 9 40 ]) in
  let* arrivals = list_size (int_range 0 12) (pair round (list_size (int_range 0 4) (pair color count))) in
  let* horizon = frequency [ (3, return None); (2, map Option.some (int_range (-1) 24)) ] in
  return (delta, bounds, arrivals, horizon)

let print_make_input (delta, bounds, arrivals, horizon) =
  Printf.sprintf "delta=%d bounds=[%s] horizon=%s arrivals=%s" delta
    (String.concat ";" (Array.to_list (Array.map string_of_int bounds)))
    (match horizon with None -> "-" | Some h -> string_of_int h)
    (String.concat " "
       (List.map
          (fun (round, request) -> Format.asprintf "%d:%a" round Types.pp_request request)
          arrivals))

let outcome f = match f () with v -> Ok v | exception Invalid_argument m -> Error m

(* The least [(round, color)] whose positive counts sum past [max_int]. *)
let first_overflow arrivals =
  let sums = Hashtbl.create 16 in
  List.iter
    (fun (round, request) ->
      List.iter
        (fun (color, count) ->
          let key = (round, color) in
          match Hashtbl.find_opt sums key with
          | Some None -> ()
          | Some (Some sum) ->
              Hashtbl.replace sums key
                (if sum > max_int - count then None else Some (sum + count))
          | None -> Hashtbl.replace sums key (Some count))
        request)
    arrivals;
  Hashtbl.fold
    (fun key sum least ->
      match (sum, least) with
      | None, None -> Some key
      | None, Some least -> Some (min key least)
      | Some _, _ -> least)
    sums None

(* What [Instance.make] returns: the reference's outcome with two of its
   faults mended. An arrival that carries no job is ignored, where the
   reference raised "index out of bounds" for one past the horizon; the
   reference runs without them. A color whose counts in one round sum
   past [max_int] is refused as a job count overflow, where the reference
   kept the wrapped count (or called it negative once a later arrival
   merged with it); that is checked once the input is otherwise valid,
   i.e. once the reference accepts it with every positive count cut to 1. *)
let expected_make ?horizon ~delta ~bounds ~arrivals () =
  let arrivals =
    List.filter
      (fun (round, request) ->
        round < 0 || List.exists (fun (_, count) -> count <> 0) request)
      arrivals
  in
  let reference arrivals =
    outcome (fun () -> Reference_instance.make ?horizon ~delta ~bounds ~arrivals ())
  in
  let ones =
    List.map
      (fun (round, request) ->
        (round, List.map (fun (color, count) -> (color, min count 1)) request))
      arrivals
  in
  match (reference ones, first_overflow arrivals) with
  | (Error _ as error), _ -> error
  | Ok _, Some (round, color) ->
      Error
        (Printf.sprintf "Instance.make: job count overflow (color %d, round %d)"
           color round)
  | Ok _, None -> reference arrivals

(* [Instance.make] and the round builder it folds into. [Instance.add]
   adds an arrival of one entry, so the builder fed every entry in order
   answers what [make] answers for the arrivals split into one entry
   each, error messages included. *)
let prop_make_matches_reference =
  QCheck2.Test.make ~name:"instance: make equals the per-arrival reference"
    ~count:3000 ~print:print_make_input gen_make_input
    (fun (delta, bounds, arrivals, horizon) ->
      let fields (i : Instance.t) = (i.requests, i.horizon) in
      let made = outcome (fun () -> fields (Instance.make ?horizon ~delta ~bounds ~arrivals ())) in
      let built =
        outcome (fun () ->
            let b = Instance.builder ?horizon ~delta ~bounds () in
            List.iter
              (fun (round, request) ->
                List.iter (fun (color, count) -> Instance.add b ~round ~color ~count) request)
              arrivals;
            fields (Instance.finish b))
      in
      let entries =
        List.concat_map
          (fun (round, request) -> List.map (fun entry -> (round, [ entry ])) request)
          arrivals
      in
      made = expected_make ?horizon ~delta ~bounds ~arrivals ()
      && built = expected_make ?horizon ~delta ~bounds ~arrivals:entries ())

let prop_normalize_matches_reference =
  QCheck2.Test.make ~name:"types: normalize_request equals the Hashtbl reference"
    ~count:1000
    QCheck2.Gen.(
      list_size (int_range 0 8)
        (pair (int_range (-1) 6)
           (frequency
              [ (8, int_range 0 4); (1, return (-1)); (1, int_range (max_int / 3) max_int) ])))
    (fun request ->
      outcome (fun () -> Reference_instance.normalize_request request)
      = outcome (fun () -> Types.normalize_request request))

let test_iter_jobs () =
  let i = tiny [ (0, [ (0, 2); (1, 1) ]) ] in
  let jobs = ref [] in
  Instance.iter_jobs i (fun j -> jobs := j :: !jobs);
  check "job count" 3 (List.length !jobs);
  check_bool "deadlines respect bounds" true
    (List.for_all
       (fun (j : Types.job) -> j.deadline = j.arrival + i.bounds.(j.color))
       !jobs)

(* ---- Job pool ---- *)

let test_pool_lifecycle () =
  let pool = Job_pool.create ~num_colors:2 in
  Job_pool.add pool ~color:0 ~deadline:3 ~count:2;
  Job_pool.add pool ~color:0 ~deadline:5 ~count:1;
  Job_pool.add pool ~color:1 ~deadline:4 ~count:1;
  check "pending 0" 3 (Job_pool.pending pool 0);
  check "total" 4 (Job_pool.total_pending pool);
  Alcotest.(check (option int)) "earliest" (Some 3) (Job_pool.earliest_deadline pool 0);
  (* Execute consumes earliest deadline. *)
  Alcotest.(check (option int)) "exec" (Some 3) (Job_pool.execute_one pool ~color:0 ~round:1);
  check "pending 0 after exec" 2 (Job_pool.pending pool 0);
  (* Drop phase at round 3 drops the remaining deadline-3 job. *)
  Alcotest.(check (list (pair int int)))
    "drops" [ (0, 1) ]
    (Job_pool.drop_expired pool ~round:3);
  check "pending 0 after drop" 1 (Job_pool.pending pool 0);
  Alcotest.(check (list int)) "nonidle colors" [ 0; 1 ] (Job_pool.nonidle_colors pool)

let test_pool_expired_execution_rejected () =
  let pool = Job_pool.create ~num_colors:1 in
  Job_pool.add pool ~color:0 ~deadline:2 ~count:1;
  match Job_pool.execute_one pool ~color:0 ~round:2 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected rejection of expired execution"

let test_pool_copy_independent () =
  let pool = Job_pool.create ~num_colors:1 in
  Job_pool.add pool ~color:0 ~deadline:5 ~count:2;
  let copy = Job_pool.copy pool in
  ignore (Job_pool.execute_one pool ~color:0 ~round:0);
  check "original shrank" 1 (Job_pool.pending pool 0);
  check "copy unchanged" 2 (Job_pool.pending copy 0)

let test_pool_copy_preserves_clock () =
  (* Regression: [copy] used to rebuild the pool via [add] from time 0,
     which reset the expiry clock — the copy then accepted already-expired
     deadlines and re-walked every round from 0 on its next drop phase. *)
  let pool = Job_pool.create ~num_colors:2 in
  Job_pool.add pool ~color:0 ~deadline:5 ~count:1;
  Job_pool.add pool ~color:1 ~deadline:12 ~count:2;
  Alcotest.(check (list (pair int int)))
    "drop at 9" [ (0, 1) ]
    (Job_pool.drop_expired pool ~round:9);
  let copy = Job_pool.copy pool in
  Alcotest.(check (option int))
    "earliest_deadline agrees"
    (Job_pool.earliest_deadline pool 1)
    (Job_pool.earliest_deadline copy 1);
  let expect_expired name p =
    match Job_pool.add p ~color:0 ~deadline:5 ~count:1 with
    | exception Invalid_argument _ -> ()
    | () -> Alcotest.failf "%s accepted an already-expired deadline" name
  in
  expect_expired "original" pool;
  expect_expired "copy" copy;
  (* Both pools drop the surviving batch in the same round. *)
  Alcotest.(check (list (pair int int)))
    "copy drops at 12" [ (1, 2) ]
    (Job_pool.drop_expired copy ~round:12);
  Alcotest.(check (list (pair int int)))
    "original drops at 12" [ (1, 2) ]
    (Job_pool.drop_expired pool ~round:12)

let test_pool_copy_then_simulate () =
  (* A copy taken mid-simulation must evolve exactly like the original
     under the same subsequent operations. *)
  let pool = Job_pool.create ~num_colors:3 in
  Job_pool.add pool ~color:0 ~deadline:4 ~count:2;
  Job_pool.add pool ~color:1 ~deadline:6 ~count:1;
  ignore (Job_pool.drop_expired pool ~round:0);
  ignore (Job_pool.execute_one pool ~color:0 ~round:0);
  let copy = Job_pool.copy pool in
  let drive p =
    let trace = ref [] in
    for round = 1 to 8 do
      let dropped = Job_pool.drop_expired p ~round in
      if round = 2 then Job_pool.add p ~color:2 ~deadline:(round + 3) ~count:1;
      let executed = Job_pool.execute_one p ~color:(round mod 3) ~round in
      trace := (round, dropped, executed, Job_pool.total_pending p) :: !trace
    done;
    List.rev !trace
  in
  check_bool "copy-then-simulate traces agree" true (drive pool = drive copy)

(* ---- Ledger ---- *)

let test_ledger_costs () =
  let l = Ledger.create ~delta:3 () in
  Ledger.record_reconfig l ~round:0 ~mini_round:0 ~location:0 ~previous:None ~next:1;
  Ledger.record_reconfig l ~round:1 ~mini_round:0 ~location:0 ~previous:(Some 1)
    ~next:2;
  Ledger.record_drop l ~round:2 ~color:1 ~count:4;
  Ledger.record_execute l ~round:1 ~mini_round:0 ~location:0 ~color:2 ~deadline:3;
  check "reconfig cost" 6 (Ledger.reconfig_cost l);
  check "total" 10 (Ledger.total_cost l);
  check "events" 4 (List.length (Ledger.events l))

(* ---- Engine semantics ---- *)

(* Idle-policy: never configures anything; every job must be dropped at
   exactly its deadline. *)
module Idle_policy = struct
  type t = int

  let name = "idle"
  let create ~n ~delta:_ ~bounds:_ = n
  let on_drop _ ~round:_ ~dropped:_ = ()
  let on_arrival _ ~round:_ ~request:_ = ()
  let reconfigure n _view = Array.make n None
  let stats _ = []
  let serialize _ = "{}"
  let deserialize _ _ = ()
end

(* Pin-policy: configures location 0 to color 0 forever. *)
module Pin_policy = struct
  type t = int

  let name = "pin0"
  let create ~n ~delta:_ ~bounds:_ = n
  let on_drop _ ~round:_ ~dropped:_ = ()
  let on_arrival _ ~round:_ ~request:_ = ()

  let reconfigure n _view =
    let target = Array.make n None in
    target.(0) <- Some 0;
    target

  let stats _ = []
  let serialize _ = "{}"
  let deserialize _ _ = ()
end

let test_engine_idle_drops_everything () =
  let i = tiny [ (0, [ (0, 2); (1, 1) ]); (2, [ (0, 1) ]) ] in
  let result = Engine.run ~n:2 ~policy:(module Idle_policy) i in
  check "all dropped" 4 (Ledger.drop_count result.ledger);
  check "no reconfig" 0 (Ledger.reconfig_count result.ledger);
  check "cost = drops" 4 (Ledger.total_cost result.ledger);
  let schedule = Schedule.of_run ~instance:i ~n:2 ~speed:1 result.ledger in
  check_bool "validates" true (Schedule.validate schedule = Ok ())

let test_engine_drop_timing () =
  (* A color-0 job arriving at round 0 with bound 2 must drop exactly in
     round 2's drop phase. *)
  let i = tiny [ (0, [ (0, 1) ]) ] in
  let result = Engine.run ~n:1 ~policy:(module Idle_policy) i in
  (match Ledger.events result.ledger with
  | [ Ledger.Drop { round; color; count } ] ->
      check "drop round" 2 round;
      check "drop color" 0 color;
      check "drop count" 1 count
  | events -> Alcotest.failf "unexpected events (%d)" (List.length events));
  check "cost" 1 (Ledger.total_cost result.ledger)

let test_engine_pin_executes () =
  (* Pinned resource executes one color-0 job per round: 2 jobs arriving
     at round 0 with bound 2 are both executed (rounds 0 and 1). *)
  let i = tiny [ (0, [ (0, 2) ]) ] in
  let result = Engine.run ~n:1 ~policy:(module Pin_policy) i in
  check "executions" 2 (Ledger.exec_count result.ledger);
  check "drops" 0 (Ledger.drop_count result.ledger);
  check "one reconfiguration" 1 (Ledger.reconfig_count result.ledger);
  check "cost" 2 (Ledger.total_cost result.ledger)

let test_engine_capacity_bound () =
  (* 3 jobs, bound 2, one pinned resource: only rounds 0 and 1 available,
     so exactly one job drops. *)
  let i = tiny [ (0, [ (0, 3) ]) ] in
  let result = Engine.run ~n:1 ~policy:(module Pin_policy) i in
  check "executions" 2 (Ledger.exec_count result.ledger);
  check "drops" 1 (Ledger.drop_count result.ledger)

let test_engine_double_speed () =
  (* Double speed: two executions per round on one pinned resource. *)
  let i = tiny [ (0, [ (0, 3) ]) ] in
  let result = Engine.run ~speed:2 ~n:1 ~policy:(module Pin_policy) i in
  check "executions" 3 (Ledger.exec_count result.ledger);
  check "drops" 0 (Ledger.drop_count result.ledger);
  let schedule = Schedule.of_run ~instance:i ~n:1 ~speed:2 result.ledger in
  check_bool "double-speed schedule validates" true (Schedule.validate schedule = Ok ())

let test_engine_same_color_free () =
  (* Re-activating the same physical color is free: pin executes color 0
     in two separate bursts, paying for one reconfiguration only. *)
  let i = tiny [ (0, [ (0, 1) ]); (8, [ (0, 1) ]) ] in
  let result = Engine.run ~n:1 ~policy:(module Pin_policy) i in
  check "one reconfiguration" 1 (Ledger.reconfig_count result.ledger);
  check "both executed" 2 (Ledger.exec_count result.ledger)

let test_engine_bad_policy_rejected () =
  let module Bad = struct
    type t = unit

    let name = "bad"
    let create ~n:_ ~delta:_ ~bounds:_ = ()
    let on_drop () ~round:_ ~dropped:_ = ()
    let on_arrival () ~round:_ ~request:_ = ()
    let reconfigure () _view = [| Some 0 |] (* wrong length for n = 2 *)
    let stats () = []
    let serialize () = "{}"
    let deserialize () _ = ()
  end in
  let i = tiny [ (0, [ (0, 1) ]) ] in
  match Engine.run ~n:2 ~policy:(module Bad) i with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument"

let test_engine_color_out_of_range () =
  (* Regression: the engine used to apply out-of-range colors blindly,
     crashing deep inside the job pool (or silently corrupting the
     assignment for negative colors). It must reject them up front with a
     diagnostic naming the policy and the exact location/round. *)
  let module Stray = struct
    type t = unit

    let name = "stray"
    let create ~n:_ ~delta:_ ~bounds:_ = ()
    let on_drop () ~round:_ ~dropped:_ = ()
    let on_arrival () ~round:_ ~request:_ = ()
    let reconfigure () _view = [| Some 7; None |]
    let stats () = []
    let serialize () = "{}"
    let deserialize () _ = ()
  end in
  let i = tiny [ (0, [ (0, 1) ]) ] in
  Alcotest.check_raises "out-of-range color"
    (Invalid_argument
       "Engine.run: policy stray returned color 7 at location 0 (round 0, mini-round 0); valid colors are 0..1")
    (fun () -> ignore (Engine.run ~n:2 ~policy:(module Stray) i));
  let module Negative = struct
    type t = unit

    let name = "negative"
    let create ~n:_ ~delta:_ ~bounds:_ = ()
    let on_drop () ~round:_ ~dropped:_ = ()
    let on_arrival () ~round:_ ~request:_ = ()
    let reconfigure () _view = [| None; Some (-1) |]
    let stats () = []
    let serialize () = "{}"
    let deserialize () _ = ()
  end in
  Alcotest.check_raises "negative color"
    (Invalid_argument
       "Engine.run: policy negative returned color -1 at location 1 (round 0, mini-round 0); valid colors are 0..1")
    (fun () -> ignore (Engine.run ~n:2 ~policy:(module Negative) i))

(* ---- Schedule validation catches corrupted logs ---- *)

let run_pin i = Engine.run ~n:1 ~policy:(module Pin_policy) i

let test_validator_rejects_phantom_exec () =
  let i = tiny [ (0, [ (0, 1) ]) ] in
  let result = run_pin i in
  let events =
    Ledger.events result.ledger
    @ [ Ledger.Execute { round = 1; mini_round = 0; location = 0; color = 0; deadline = 2 } ]
  in
  let schedule = { Schedule.instance = i; n = 1; speed = 1; events } in
  check_bool "phantom execution rejected" true (Schedule.validate schedule <> Ok ())

let test_validator_rejects_wrong_previous () =
  let i = tiny [ (0, [ (0, 1) ]) ] in
  let result = run_pin i in
  let events =
    List.map
      (function
        | Ledger.Reconfig r -> Ledger.Reconfig { r with previous = Some 9 }
        | e -> e)
      (Ledger.events result.ledger)
  in
  let schedule = { Schedule.instance = i; n = 1; speed = 1; events } in
  check_bool "wrong previous rejected" true (Schedule.validate schedule <> Ok ())

let test_validator_rejects_missing_drop () =
  let i = tiny [ (0, [ (0, 2) ]) ] in
  let result = Engine.run ~n:1 ~policy:(module Idle_policy) i in
  let events =
    List.filter (function Ledger.Drop _ -> false | _ -> true)
      (Ledger.events result.ledger)
  in
  let schedule = { Schedule.instance = i; n = 1; speed = 1; events } in
  check_bool "missing drops rejected" true (Schedule.validate schedule <> Ok ())

let test_validator_rejects_double_booking () =
  let i = tiny [ (0, [ (0, 2) ]) ] in
  let events =
    [
      Ledger.Reconfig { round = 0; mini_round = 0; location = 0; previous = None; next = 0 };
      Ledger.Execute { round = 0; mini_round = 0; location = 0; color = 0; deadline = 2 };
      Ledger.Execute { round = 0; mini_round = 0; location = 0; color = 0; deadline = 2 };
      Ledger.Drop { round = 2; color = 0; count = 0 };
    ]
  in
  let schedule = { Schedule.instance = i; n = 1; speed = 1; events } in
  check_bool "double booking rejected" true (Schedule.validate schedule <> Ok ())

(* ---- Rebuild ---- *)

let test_rebuild_roundtrip () =
  (* Rebuilding the pin policy's own actions reproduces its costs. *)
  let i = tiny [ (0, [ (0, 2) ]); (4, [ (1, 1) ]) ] in
  let result = run_pin i in
  let actions =
    List.filter_map
      (function
        | Ledger.Reconfig { round; mini_round; location; next; _ } ->
            Some (Rebuild.Configure { round; mini_round; location; color = next })
        | Ledger.Execute { round; mini_round; location; color; _ } ->
            Some (Rebuild.Run { round; mini_round; location; color })
        | Ledger.Drop _ | Ledger.Crash _ | Ledger.Repair _
        | Ledger.Reconfig_failed _ ->
            None)
      (Ledger.events result.ledger)
  in
  match Rebuild.rebuild ~instance:i ~n:1 ~speed:1 ~actions with
  | Error e -> Alcotest.fail e
  | Ok schedule ->
      check "cost matches" (Ledger.total_cost result.ledger)
        (Schedule.total_cost schedule);
      check_bool "validates" true (Schedule.validate schedule = Ok ())

let test_rebuild_rejects_bad_run () =
  let i = tiny [ (0, [ (0, 1) ]) ] in
  let actions = [ Rebuild.Run { round = 0; mini_round = 0; location = 0; color = 0 } ] in
  (match Rebuild.rebuild ~instance:i ~n:1 ~speed:1 ~actions with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "run without configure must fail");
  let actions =
    [
      Rebuild.Configure { round = 0; mini_round = 0; location = 0; color = 1 };
      Rebuild.Run { round = 0; mini_round = 0; location = 0; color = 1 };
    ]
  in
  match Rebuild.rebuild ~instance:i ~n:1 ~speed:1 ~actions with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "phantom job must fail"

let test_rebuild_collapses_same_color () =
  (* Configuring the same color twice charges once. *)
  let i = tiny [ (0, [ (0, 2) ]) ] in
  let actions =
    [
      Rebuild.Configure { round = 0; mini_round = 0; location = 0; color = 0 };
      Rebuild.Run { round = 0; mini_round = 0; location = 0; color = 0 };
      Rebuild.Configure { round = 1; mini_round = 0; location = 0; color = 0 };
      Rebuild.Run { round = 1; mini_round = 0; location = 0; color = 0 };
    ]
  in
  match Rebuild.rebuild ~instance:i ~n:1 ~speed:1 ~actions with
  | Error e -> Alcotest.fail e
  | Ok schedule ->
      check "one reconfig" 1 (Schedule.reconfig_count schedule);
      check "no drops" 0 (Schedule.drop_count schedule)

(* ---- Trace round trip ---- *)

let test_trace_roundtrip () =
  let i =
    Instance.make ~name:"roundtrip demo" ~delta:5 ~bounds:[| 2; 8; 4 |]
      ~arrivals:[ (0, [ (0, 1); (2, 3) ]); (8, [ (1, 2) ]) ]
      ()
  in
  match Trace.of_string (Trace.to_string i) with
  | Error e -> Alcotest.fail e
  | Ok i' ->
      check "delta" i.delta i'.delta;
      Alcotest.(check (array int)) "bounds" i.bounds i'.bounds;
      check "horizon" i.horizon i'.horizon;
      check "jobs" (Instance.total_jobs i) (Instance.total_jobs i');
      Alcotest.(check string) "name" "roundtrip demo" i'.name

let test_trace_parse_errors () =
  let is_error text = check_bool text true (Result.is_error (Trace.of_string text)) in
  is_error "delta 4\nend\n";
  is_error "bounds 2 4\nend\n";
  is_error "delta x\nbounds 2\nend\n";
  is_error "delta 4\nbounds 2\narrival 0 9:1\nend\n";
  is_error "delta 4\nbounds 2\nfrobnicate\nend\n"

let test_trace_comments_and_whitespace () =
  let text =
    "rrs-trace v1\n# a comment\nname   spaced name\ndelta 2 # inline\nbounds 4\n\n\
     arrival 0 0:2\nend\n"
  in
  match Trace.of_string text with
  | Error e -> Alcotest.fail e
  | Ok i ->
      check "jobs" 2 (Instance.total_jobs i);
      Alcotest.(check string) "name keeps spaces" "spaced name" i.name

(* ---- Properties ---- *)

(* Model-based check of Job_pool against a naive list of (deadline)
   multiset operations. *)
let prop_pool_matches_model =
  QCheck2.Test.make ~name:"job_pool: agrees with a naive list model" ~count:150
    QCheck2.Gen.(list (pair (int_bound 3) (pair (int_bound 2) (int_bound 12))))
    (fun ops ->
      let pool = Job_pool.create ~num_colors:3 in
      let model = ref [] in (* (color, deadline) list *)
      let round = ref 0 in
      let ok = ref true in
      List.iter
        (fun (op, (color, value)) ->
          match op with
          | 0 ->
              (* add [value mod 3 + 1] jobs at deadline round + offset *)
              let deadline = !round + 1 + (value mod 8) in
              let count = 1 + (value mod 3) in
              Job_pool.add pool ~color ~deadline ~count;
              for _ = 1 to count do
                model := (color, deadline) :: !model
              done
          | 1 -> (
              (* execute one of [color]: earliest deadline *)
              let expected =
                List.filter (fun (c, _) -> c = color) !model
                |> List.map snd
                |> List.sort Int.compare
              in
              match (Job_pool.execute_one pool ~color ~round:!round, expected) with
              | None, [] -> ()
              | Some d, e :: _ when d = e ->
                  (* remove one occurrence *)
                  let removed = ref false in
                  model :=
                    List.filter
                      (fun (c, dl) ->
                        if (not !removed) && c = color && dl = d then begin
                          removed := true;
                          false
                        end
                        else true)
                      !model
              | _ -> ok := false)
          | 2 ->
              (* advance one round: drop expired *)
              round := !round + 1;
              let dropped = Job_pool.drop_expired pool ~round:!round in
              let expected = List.filter (fun (_, d) -> d <= !round) !model in
              model := List.filter (fun (_, d) -> d > !round) !model;
              let total =
                List.fold_left (fun acc (_, count) -> acc + count) 0 dropped
              in
              if total <> List.length expected then ok := false
          | _ ->
              (* consistency probes *)
              if Job_pool.pending pool color
                 <> List.length (List.filter (fun (c, _) -> c = color) !model)
              then ok := false)
        ops;
      !ok && Job_pool.total_pending pool = List.length !model)

let prop_engine_deterministic =
  QCheck2.Test.make ~name:"engine: identical runs produce identical ledgers"
    ~count:30 Test_helpers.gen_rate_limited (fun instance ->
      let run () =
        let r =
          Engine.run ~record_events:true ~n:8
            ~policy:(module Rrs_core.Policy_lru_edf) instance
        in
        (Ledger.total_cost r.ledger, Ledger.events r.ledger)
      in
      run () = run ())

let prop_trace_roundtrip =
  QCheck2.Test.make ~name:"trace: to_string/of_string roundtrip" ~count:60
    Test_helpers.gen_batched (fun instance ->
      match Trace.of_string (Trace.to_string instance) with
      | Error _ -> false
      | Ok back ->
          back.Instance.delta = instance.Instance.delta
          && back.Instance.bounds = instance.Instance.bounds
          && back.Instance.requests = instance.Instance.requests)

let quick name f = Alcotest.test_case name `Quick f
let prop p = QCheck_alcotest.to_alcotest p

let suite =
  [
    ( "sim.instance",
      [
        quick "normalize request" test_normalize_request;
        quick "horizon computation" test_instance_horizon;
        quick "classification" test_instance_classification;
        quick "validation errors" test_instance_validation_errors;
        quick "arrival with no job past the horizon" test_instance_no_job_past_horizon;
        quick "a builder finishes again" test_builder_finish_again;
        quick "iter_jobs" test_iter_jobs;
        prop prop_normalize_matches_reference;
        prop prop_make_matches_reference;
      ] );
    ( "sim.job_pool",
      [
        quick "lifecycle" test_pool_lifecycle;
        quick "expired execution rejected" test_pool_expired_execution_rejected;
        quick "copy independence" test_pool_copy_independent;
        quick "copy preserves expiry clock" test_pool_copy_preserves_clock;
        quick "copy-then-simulate equivalence" test_pool_copy_then_simulate;
      ] );
    ("sim.ledger", [ quick "costs" test_ledger_costs ]);
    ( "sim.engine",
      [
        quick "idle policy drops everything" test_engine_idle_drops_everything;
        quick "drop timing" test_engine_drop_timing;
        quick "pinned execution" test_engine_pin_executes;
        quick "capacity bound" test_engine_capacity_bound;
        quick "double speed" test_engine_double_speed;
        quick "same-color reuse is free" test_engine_same_color_free;
        quick "bad policy rejected" test_engine_bad_policy_rejected;
        quick "out-of-range color rejected" test_engine_color_out_of_range;
      ] );
    ( "sim.schedule",
      [
        quick "phantom execution rejected" test_validator_rejects_phantom_exec;
        quick "wrong previous rejected" test_validator_rejects_wrong_previous;
        quick "missing drops rejected" test_validator_rejects_missing_drop;
        quick "double booking rejected" test_validator_rejects_double_booking;
      ] );
    ( "sim.rebuild",
      [
        quick "roundtrip of engine actions" test_rebuild_roundtrip;
        quick "bad actions rejected" test_rebuild_rejects_bad_run;
        quick "same-color collapse" test_rebuild_collapses_same_color;
      ] );
    ( "sim.trace",
      [
        quick "roundtrip" test_trace_roundtrip;
        quick "parse errors" test_trace_parse_errors;
        quick "comments and whitespace" test_trace_comments_and_whitespace;
      ] );
    ( "sim.properties",
      [
        prop prop_pool_matches_model;
        prop prop_engine_deterministic;
        prop prop_trace_roundtrip;
      ] );
  ]
