(* Core-algorithm tests: per-color state machine, rankings, cache layout,
   the three policies' invariants and behavior on directed scenarios. *)

module Types = Rrs_sim.Types
module Instance = Rrs_sim.Instance
module Engine = Rrs_sim.Engine
module Ledger = Rrs_sim.Ledger
module Job_pool = Rrs_sim.Job_pool
module Color_state = Rrs_core.Color_state
module Cache_layout = Rrs_core.Cache_layout
module Ranking = Rrs_core.Ranking
module H = Test_helpers

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ---- Color_state: counters, eligibility, wraps, timestamps ---- *)

let always_uncached _ = false

let test_eligibility_via_wrap () =
  let s = Color_state.create ~delta:3 ~bounds:[| 4 |] () in
  Color_state.on_arrival s ~round:0 ~request:[ (0, 2) ];
  check_bool "2 < delta jobs: ineligible" false (Color_state.eligible s 0);
  Color_state.on_drop s ~round:4 ~dropped:[] ~in_cache:always_uncached;
  Color_state.on_arrival s ~round:4 ~request:[ (0, 2) ];
  (* cnt = 4 >= 3: wrap, becomes eligible, cnt = 1. *)
  check_bool "wrap makes eligible" true (Color_state.eligible s 0);
  check "deadline refreshed" 8 (Color_state.deadline s 0)

let test_eligibility_reset_when_uncached () =
  let s = Color_state.create ~delta:2 ~bounds:[| 4 |] () in
  Color_state.on_arrival s ~round:0 ~request:[ (0, 2) ];
  check_bool "eligible" true (Color_state.eligible s 0);
  (* Boundary at round 4, not cached: becomes ineligible (epoch ends). *)
  Color_state.on_drop s ~round:4 ~dropped:[] ~in_cache:always_uncached;
  check_bool "reset" false (Color_state.eligible s 0);
  check "one epoch ended" 1 (H.stat (Color_state.stats s) "epochs")

let test_eligibility_kept_when_cached () =
  let s = Color_state.create ~delta:2 ~bounds:[| 4 |] () in
  Color_state.on_arrival s ~round:0 ~request:[ (0, 2) ];
  Color_state.on_drop s ~round:4 ~dropped:[] ~in_cache:(fun _ -> true);
  check_bool "still eligible" true (Color_state.eligible s 0)

let test_non_boundary_rounds_do_nothing () =
  let s = Color_state.create ~delta:2 ~bounds:[| 4 |] () in
  Color_state.on_arrival s ~round:0 ~request:[ (0, 2) ];
  (* Rounds 1-3 are not boundaries of a bound-4 color. *)
  Color_state.on_drop s ~round:1 ~dropped:[] ~in_cache:always_uncached;
  Color_state.on_drop s ~round:3 ~dropped:[] ~in_cache:always_uncached;
  check_bool "no reset off-boundary" true (Color_state.eligible s 0);
  check "deadline unchanged" 4 (Color_state.deadline s 0)

let test_timestamp_definition () =
  let s = Color_state.create ~delta:2 ~bounds:[| 4 |] () in
  (* Wrap at round 0: timestamp stays 0 while the current boundary is 0,
     and becomes 0 (the wrap round) only after the next boundary. *)
  Color_state.on_arrival s ~round:0 ~request:[ (0, 3) ];
  check "ts at round 2: no wrap before boundary 0" 0
    (Color_state.timestamp s 0 ~round:2);
  Color_state.on_drop s ~round:4 ~dropped:[] ~in_cache:(fun _ -> true);
  Color_state.on_arrival s ~round:4 ~request:[ (0, 2) ];
  (* Wrap at round 4 too (cnt was 1, +2 = 3 >= 2). As of rounds 4-7 the
     most recent boundary is 4; the latest wrap before it is round 0. *)
  check "ts after boundary 4" 0 (Color_state.timestamp s 0 ~round:5);
  Color_state.on_drop s ~round:8 ~dropped:[] ~in_cache:(fun _ -> true);
  Color_state.on_arrival s ~round:8 ~request:[];
  (* As of round 8, latest wrap before boundary 8 is the round-4 wrap. *)
  check "ts after boundary 8" 4 (Color_state.timestamp s 0 ~round:9)

let test_drop_classification () =
  let s = Color_state.create ~delta:2 ~bounds:[| 2 |] () in
  Color_state.on_arrival s ~round:0 ~request:[ (0, 1) ];
  (* 1 < delta: ineligible when its job drops at round 2. *)
  Color_state.on_drop s ~round:2 ~dropped:[ (0, 1) ] ~in_cache:always_uncached;
  Color_state.on_arrival s ~round:2 ~request:[ (0, 3) ];
  (* wrap -> eligible; at round 4 (uncached) its pending jobs drop as
     eligible drops, then it resets. *)
  Color_state.on_drop s ~round:4 ~dropped:[ (0, 3) ] ~in_cache:always_uncached;
  let stats = Color_state.stats s in
  check "ineligible drops" 1 (H.stat stats "ineligible_drops");
  check "eligible drops" 3 (H.stat stats "eligible_drops")

let test_epoch_counting_includes_incomplete () =
  let s = Color_state.create ~delta:5 ~bounds:[| 2; 2 |] () in
  (* Color 0: full epoch (becomes eligible then resets). Color 1: a few
     jobs, never eligible -> one incomplete epoch. *)
  Color_state.on_arrival s ~round:0 ~request:[ (0, 5); (1, 1) ];
  Color_state.on_drop s ~round:2 ~dropped:[] ~in_cache:always_uncached;
  check "ended + incomplete" 2 (H.stat (Color_state.stats s) "epochs")

(* ---- Rankings ---- *)

let test_edf_ranking () =
  let s = Color_state.create ~delta:1 ~bounds:[| 4; 4; 8; 4 |] () in
  let pool = Job_pool.create ~num_colors:4 in
  (* All colors get boundary treatment at round 0. *)
  Color_state.on_arrival s ~round:0 ~request:[ (0, 1); (1, 1); (2, 1); (3, 1) ];
  (* color 1 idle (no pending), others nonidle. *)
  Job_pool.add pool ~color:0 ~deadline:4 ~count:1;
  Job_pool.add pool ~color:2 ~deadline:8 ~count:1;
  Job_pool.add pool ~color:3 ~deadline:4 ~count:1;
  let bounds = [| 4; 4; 8; 4 |] in
  let compare = Ranking.edf_compare s pool ~bounds in
  let sorted = List.sort compare [ 0; 1; 2; 3 ] in
  (* nonidle first; among nonidle: deadline 4 before 8; ties by color. *)
  Alcotest.(check (list int)) "edf order" [ 0; 3; 2; 1 ] sorted

let test_job_ranking () =
  let pool = Job_pool.create ~num_colors:3 in
  Job_pool.add pool ~color:0 ~deadline:6 ~count:1;
  Job_pool.add pool ~color:1 ~deadline:4 ~count:1;
  Job_pool.add pool ~color:2 ~deadline:6 ~count:1;
  let bounds = [| 8; 4; 4 |] in
  let compare = Ranking.job_compare pool ~bounds in
  let sorted = List.sort compare [ 0; 1; 2 ] in
  (* deadline 4 first; among deadline 6: smaller bound (color 2) first. *)
  Alcotest.(check (list int)) "job order" [ 1; 2; 0 ] sorted

(* ---- Cache layout ---- *)

(* One placement through a fresh layout: [want] in placement order. *)
let layout ~n ~copies ~current want =
  let held = List.filter_map Fun.id (Array.to_list current) in
  let num_colors = 1 + List.fold_left max 0 (want @ held) in
  let t = Cache_layout.create ~n ~copies ~num_colors in
  List.iter (Cache_layout.want t) want;
  Array.copy
    (Cache_layout.assign t ~current ~order:(fun f -> List.iter f want))

let test_layout_keeps_existing () =
  let current = [| Some 1; Some 2; Some 1; None |] in
  let target = layout ~n:4 ~copies:2 ~current [ 1; 3 ] in
  Alcotest.(check (array (option int)))
    "1 keeps both slots; 3 takes the rest"
    [| Some 1; Some 3; Some 1; Some 3 |]
    target

let test_layout_partial_keep () =
  let current = [| Some 1; None; None; None |] in
  let target = layout ~n:4 ~copies:2 ~current [ 1 ] in
  Alcotest.(check (array (option int)))
    "second copy fills first free slot"
    [| Some 1; Some 1; None; None |]
    target

let test_layout_errors () =
  let current = [| None; None |] in
  (match layout ~n:2 ~copies:2 ~current [ 1; 2 ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "over capacity accepted");
  match layout ~n:2 ~copies:1 ~current [ 1; 1 ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "duplicate accepted"

let prop_layout_well_formed =
  QCheck2.Test.make ~name:"cache_layout: every wanted color gets exactly k copies"
    ~count:300
    QCheck2.Gen.(
      let* n = int_range 2 16 in
      let* copies = int_range 1 2 in
      let* want_size = int_range 0 (n / copies) in
      let want = List.init want_size (fun i -> i * 3) in
      let* current = array_size (return n) (option (int_bound 40)) in
      return (n, copies, current, want))
    (fun (n, copies, current, want) ->
      let target = layout ~n ~copies ~current want in
      let count color =
        Array.fold_left
          (fun acc cell -> if cell = Some color then acc + 1 else acc)
          0 target
      in
      List.for_all (fun c -> count c = copies) want
      && Array.for_all
           (function None -> true | Some c -> List.mem c want)
           target)

let prop_layout_minimizes_moves =
  QCheck2.Test.make
    ~name:"cache_layout: never recolors a location already holding a wanted color"
    ~count:300
    QCheck2.Gen.(
      let* n = int_range 2 12 in
      let* want_size = int_range 0 (n / 2) in
      let want = List.init want_size Fun.id in
      let* current = array_size (return n) (option (int_bound 6)) in
      return (n, current, want))
    (fun (n, current, want) ->
      let target = layout ~n ~copies:2 ~current want in
      (* Count per-color kept locations: for each wanted color, changed
         locations = copies - (kept existing), i.e. a location holding a
         wanted color may only change if that color already has 2 kept
         slots elsewhere. Equivalent check: #(locations where
         target = current = Some wanted) >= min(copies, #existing). *)
      List.for_all
        (fun color ->
          let existing =
            Array.fold_left
              (fun acc cell -> if cell = Some color then acc + 1 else acc)
              0 current
          in
          let kept = ref 0 in
          Array.iteri
            (fun i cell ->
              if cell = Some color && current.(i) = Some color then incr kept)
            target;
          !kept >= min 2 existing)
        want)

(* ---- Color_state against its reference model ---- *)

module Ref_state = Reference_policies.Color_state

(* One round of the model test: the round number, the drops and the
   cache membership of its drop phase, and its arrivals. *)
type model_round = {
  round : int;
  dropped : (int * int) list;
  cached : bool array;
  request : (int * int) list;
}

let gen_model_case =
  let open QCheck2.Gen in
  let* colors = int_range 1 10 in
  let* bounds = array_size (return colors) (oneofl [ 1; 2; 3; 4; 6; 8 ]) in
  let* delta = int_range 1 4 in
  let* length = int_range 1 40 in
  (* Mostly consecutive rounds, some skipped (round 0, then round 4). *)
  let* gaps = list_size (return length) (frequency [ (4, return 1); (1, int_range 2 6) ]) in
  let per_color gen = list_size (int_bound 3) (pair (int_bound (colors - 1)) gen) in
  let* bodies =
    list_size (return length)
      (triple (per_color (int_range 1 3)) (array_size (return colors) bool)
         (per_color (int_range 1 5)))
  in
  let rounds =
    List.rev
      (snd
         (List.fold_left2
            (fun (round, acc) gap (dropped, cached, request) ->
              (round + gap, { round; dropped; cached; request } :: acc))
            (0, []) gaps bodies))
  in
  let* cut = int_bound length in
  return (bounds, delta, rounds, cut)

let print_model_case (bounds, delta, rounds, cut) =
  let pairs l = String.concat ";" (List.map (fun (c, k) -> Printf.sprintf "%d:%d" c k) l) in
  Printf.sprintf "bounds=[%s] delta=%d cut=%d rounds=%s"
    (String.concat "," (Array.to_list (Array.map string_of_int bounds)))
    delta cut
    (String.concat " "
       (List.map
          (fun r -> Printf.sprintf "%d(drop %s | arrive %s)" r.round (pairs r.dropped) (pairs r.request))
          rounds))

let ranked state (order : Color_state.order) =
  match order with
  | Recency | Recency2 ->
      List.init (Color_state.eligible_count state) (Color_state.ranked state order)
  | Deadline | Deadline_all ->
      let acc = ref [] in
      Color_state.iter_ranked state order (fun color ->
          acc := color :: !acc;
          true);
      List.rev !acc

(* Drives production [Color_state] and the reference model through the
   same calls (a restore from [serialize_fields] halfway) and compares
   them after every call: deadlines, eligibility, stats, the event log
   and the hook's events, the blob, and every rank order (and each walk
   resumed after a color) against the reference's colors sorted by its
   keys. An order whose [version] did not move must not have changed. *)
let prop_color_state_matches_reference =
  QCheck2.Test.make ~count:300 ~print:print_model_case
    ~name:"color_state: grouped state = reference model (orders, blobs, events)"
    gen_model_case
    (fun (bounds, delta, rounds, cut) ->
      let colors = Array.length bounds in
      let hooked = ref [] and ref_hooked = ref [] in
      let fresh () =
        ( Color_state.create ~record_timestamp_events:true
            ~on_timestamp:(fun ~round ~color -> hooked := (round, color) :: !hooked)
            ~orders:[ Recency; Recency2; Deadline; Deadline_all ] ~delta ~bounds (),
          Ref_state.create ~record_timestamp_events:true
            ~on_timestamp:(fun ~round ~color -> ref_hooked := (round, color) :: !ref_hooked)
            ~delta ~bounds () )
      in
      let state, model = fresh () in
      let state = ref state and model = ref model in
      let seen = Hashtbl.create 4 in
      let fail what round = QCheck2.Test.fail_reportf "%s differs after round %d" what round in
      let sorted key keep =
        List.filter keep (List.init colors Fun.id)
        |> List.sort (fun a b -> compare (key a, a) (key b, b))
      in
      let compare_all ~round ~arrived =
        let s = !state and m = !model in
        for color = 0 to colors - 1 do
          if Color_state.deadline s color <> Ref_state.deadline m color then fail "deadline" round;
          if Color_state.eligible s color <> Ref_state.eligible m color then fail "eligible" round
        done;
        if Color_state.stats s <> Ref_state.stats m then fail "stats" round;
        if Color_state.timestamp_events s <> Ref_state.timestamp_events m then
          fail "timestamp_events" round;
        if !hooked <> !ref_hooked then fail "on_timestamp events" round;
        if Color_state.serialize_fields s <> Ref_state.serialize_fields m then
          fail "serialize_fields" round;
        if Color_state.eligible_count s <> List.length (Ref_state.eligible_colors m) then
          fail "eligible_count" round;
        let deadline color = (Ref_state.deadline m color, bounds.(color)) in
        let expected =
          [
            (Color_state.Deadline, sorted deadline (Ref_state.eligible m));
            (Deadline_all, sorted deadline (fun _ -> true));
          ]
          @
          if arrived then
            let ts color = Ref_state.timestamp m color ~round
            and ts2 color = Ref_state.timestamp2 m color ~round in
            [
              (Color_state.Recency, sorted (fun c -> -ts c) (Ref_state.eligible m));
              (Recency2, sorted (fun c -> (-ts2 c, -ts c)) (Ref_state.eligible m));
            ]
          else []
        in
        List.iter
          (fun (order, want) ->
            let got = ranked s order in
            if got <> want then fail "a rank order" round;
            (match order with
            | Deadline | Deadline_all ->
                (* Walking on after each color gives the rest of the order. *)
                let rec suffixes = function
                  | [] -> ()
                  | color :: rest ->
                      let after = ref [] in
                      Color_state.iter_ranked_after s order color (fun c ->
                          after := c :: !after;
                          true);
                      if List.rev !after <> rest then fail "a walk after a color" round;
                      suffixes rest
                in
                suffixes got
            | Recency | Recency2 -> ());
            let version = Color_state.version s order in
            (match Hashtbl.find_opt seen order with
            | Some (v, before) when v = version && before <> got ->
                fail "an order with an unmoved version" round
            | _ -> ());
            Hashtbl.replace seen order (version, got))
          expected
      in
      List.iteri
        (fun i r ->
          if i = cut then begin
            let blob = Color_state.serialize_fields !state
            and ref_blob = Ref_state.serialize_fields !model in
            let state', model' = fresh () in
            Color_state.deserialize_fields state'
              (Rrs_sim.Event_sink.Json.parse_fields ("{" ^ blob ^ "}"));
            Ref_state.deserialize_fields model'
              (Rrs_sim.Event_sink.Json.parse_fields ("{" ^ ref_blob ^ "}"));
            state := state';
            model := model';
            Hashtbl.reset seen;
            compare_all ~round:r.round ~arrived:false
          end;
          let in_cache color = r.cached.(color) in
          Color_state.on_drop !state ~round:r.round ~dropped:r.dropped ~in_cache;
          Ref_state.on_drop !model ~round:r.round ~dropped:r.dropped ~in_cache;
          compare_all ~round:r.round ~arrived:false;
          Color_state.on_arrival !state ~round:r.round ~request:r.request;
          Ref_state.on_arrival !model ~round:r.round ~request:r.request;
          compare_all ~round:r.round ~arrived:true)
        rounds;
      true)

(* A blob whose deadlines differ within one bound group cannot have been
   written by [Color_state]: restoring it is refused with the color and
   the group named, not resolved last-wins. *)
let test_split_group_deadline_refused () =
  let instance =
    Instance.make ~delta:2 ~bounds:[| 4; 4; 2 |]
      ~arrivals:[ (0, [ (0, 2); (1, 2); (2, 2) ]); (4, [ (0, 2) ]) ]
      ()
  in
  let policy : (module Rrs_sim.Policy.POLICY) = (module Rrs_core.Policy_lru_edf) in
  let stepper =
    Rrs_sim.Stepper.create ~record_events:false ~checkpoint_every:1 ~policy
      {
        Rrs_sim.Stepper.name = "split";
        delta = instance.delta;
        bounds = instance.bounds;
        n = 8;
        speed = 1;
        horizon = instance.horizon;
      }
  in
  for round = 0 to 5 do
    Rrs_sim.Stepper.feed stepper instance.requests.(round);
    Rrs_sim.Stepper.step stepper
  done;
  let snapshot = Rrs_sim.Stepper.snapshot stepper in
  (* Colors 0 and 1 share bound 4; at round 5 both have deadline 8. Edit
     color 1's to 12 in the policy blob's deadline array. *)
  let find sub from =
    let n = String.length snapshot and m = String.length sub in
    let rec go i =
      if i + m > n then Alcotest.failf "no %S in the snapshot: %s" sub snapshot
      else if String.sub snapshot i m = sub then i
      else go (i + 1)
    in
    go from
  in
  let key = find "cs_dd" 0 in
  let first = find "[" key and last = find "]" key in
  check_bool "deadlines before the edit" true
    (String.sub snapshot first (last - first + 1) = "[8,8,6]");
  let edited =
    String.sub snapshot 0 first ^ "[8,12,6]"
    ^ String.sub snapshot (last + 1) (String.length snapshot - last - 1)
  in
  (match Rrs_sim.Stepper.restore ~record_events:false ~policy snapshot with
  | Ok _ -> ()
  | Error message -> Alcotest.failf "the unedited snapshot must restore: %s" message);
  match Rrs_sim.Stepper.restore ~record_events:false ~policy edited with
  | Ok _ -> Alcotest.fail "a split bound group was restored"
  | Error message ->
      Alcotest.(check string)
        "names color 1 and bound 4"
        "restore: field \"cs_dd\": color 1 has deadline 12, but color 0 of its bound \
         group (bound 4) has 8"
        message

(* One layout reused across rounds answers what a fresh layout answers
   from the same wanted set and [current], whether [current] follows the
   last target (as the engine applies it, with failed reconfigurations,
   crashes and a second mini-round) or was overwritten anywhere. The set
   is sometimes wanted again with [rewant]. *)
let prop_layout_reuse_matches_fresh =
  QCheck2.Test.make ~name:"cache_layout: a reused layout = a fresh one, every round"
    ~count:300
    QCheck2.Gen.(
      let* n = int_range 1 10 in
      let* copies = int_range 1 2 in
      let colors = 6 in
      let step =
        let* change = frequency [ (2, return false); (1, return true) ] in
        let* subset = array_size (return colors) bool in
        let* failed = array_size (return n) (frequency [ (6, return false); (1, return true) ]) in
        let* crashed = array_size (return n) (frequency [ (8, return false); (1, return true) ]) in
        let* overwrite = opt (pair (int_bound (n - 1)) (option (int_bound (colors - 1)))) in
        let* rewant = bool in
        return (change, subset, failed, crashed, overwrite, rewant)
      in
      let* steps = list_size (int_range 1 25) step in
      return (n, copies, colors, steps))
    (fun (n, copies, colors, steps) ->
      let reused = Cache_layout.create ~n ~copies ~num_colors:colors in
      let current = Array.make n None in
      let wanted = ref [] in
      List.for_all
        (fun (change, subset, failed, crashed, overwrite, rewant) ->
          if change then begin
            let chosen = List.filter (fun c -> subset.(c)) (List.init colors Fun.id) in
            wanted := List.filteri (fun i _ -> (i + 1) * copies <= n) chosen
          end;
          (match overwrite with Some (location, cell) -> current.(location) <- cell | None -> ());
          let order f = List.iter f (List.rev !wanted) in
          let fresh = Cache_layout.create ~n ~copies ~num_colors:colors in
          List.iter (Cache_layout.want fresh) !wanted;
          let want = Array.copy (Cache_layout.assign fresh ~current ~order) in
          if rewant && not change then Cache_layout.rewant reused
          else List.iter (Cache_layout.want reused) !wanted;
          let got = Cache_layout.assign reused ~current ~order in
          (* Apply the target as the engine does. *)
          Array.iteri
            (fun location cell ->
              match cell with
              | Some _ when not failed.(location) -> current.(location) <- cell
              | _ -> ())
            got;
          Array.iteri (fun location c -> if c then current.(location) <- None) crashed;
          got = want)
        steps)

(* ---- Policy invariants on random instances ---- *)

let policy_invariant_test ~name ~policy ~max_distinct_of_n ~copies =
  QCheck2.Test.make ~name ~count:40 H.gen_rate_limited (fun instance ->
      let module P = (val policy : Rrs_sim.Policy.POLICY) in
      let module S = H.Spy (P) in
      S.expected_copies := copies;
      let n = 8 in
      let result, _schedule = H.run_validated ~n ~policy:(module S) instance in
      let stats = result.stats in
      H.stat stats "spy_max_distinct" <= max_distinct_of_n n
      && H.stat stats "spy_replication_violations" = 0)

let prop_lru_invariants =
  policy_invariant_test ~name:"dlru: <= n/2 distinct colors, all duplicated"
    ~policy:(module Rrs_core.Policy_lru)
    ~max_distinct_of_n:(fun n -> n / 2)
    ~copies:2

let prop_edf_invariants =
  policy_invariant_test ~name:"edf: <= n/2 distinct colors, all duplicated"
    ~policy:(module Rrs_core.Policy_edf)
    ~max_distinct_of_n:(fun n -> n / 2)
    ~copies:2

let prop_lru_edf_invariants =
  policy_invariant_test ~name:"dlru-edf: <= n/2 distinct colors, all duplicated"
    ~policy:(module Rrs_core.Policy_lru_edf)
    ~max_distinct_of_n:(fun n -> n / 2)
    ~copies:2

let prop_seq_edf_invariants =
  policy_invariant_test ~name:"seq-edf: <= n distinct colors, single copies"
    ~policy:(module Rrs_core.Seq_edf)
    ~max_distinct_of_n:(fun n -> n)
    ~copies:1

let prop_policies_validate_on_unbatched =
  (* The policies are defined for batched inputs but must stay feasible
     (valid schedules) on anything. *)
  QCheck2.Test.make ~name:"policies: valid schedules even on unbatched input"
    ~count:25 H.gen_unbatched (fun instance ->
      List.for_all
        (fun (_, policy) ->
          let _ = H.run_validated ~n:8 ~policy instance in
          true)
        Rrs_stats.Experiment.standard_policies)

(* The reference comparison of [Test_reference] on unbatched input:
   arrivals off the bounds' multiples make a color nonidle between two
   boundaries, which the sweep-shape instances never do. *)
let prop_unbatched_match_reference =
  QCheck2.Test.make ~count:15
    ~name:"every policy = its reference model on unbatched input"
    QCheck2.Gen.(
      let* seed = int_bound 10_000 in
      let* colors = int_range 4 48 in
      let* n = oneofl [ 4; 8; 16 ] in
      let* delta = int_range 1 4 in
      let* load = float_range 0.1 1.0 in
      let* horizon = int_range 32 96 in
      let* speed = int_range 1 2 in
      return
        ( Rrs_workload.Random_workloads.unbatched ~seed ~colors ~delta
            ~bound_range:(1, 16) ~horizon ~load (),
          n,
          speed ))
    (fun (instance, n, speed) -> Test_reference.agree ~n ~speed instance)

(* ---- Directed scenarios ---- *)

let test_lru_killer_shape () =
  (* Appendix A: ΔLRU pins short-term colors and drops the whole backlog;
     ΔLRU-EDF must beat it by a wide margin. *)
  let adv = Rrs_workload.Adversary.lru_killer ~n:8 ~delta:2 ~j:5 ~k:8 in
  let lru = Engine.cost ~n:8 ~policy:(module Rrs_core.Policy_lru) adv.instance in
  let lru_edf =
    Engine.cost ~n:8 ~policy:(module Rrs_core.Policy_lru_edf) adv.instance
  in
  (* ΔLRU: n*delta reconfig + 2^k dropped long jobs, exactly. *)
  check "dlru cost" ((8 * 2) + 256) lru;
  check_bool "dlru-edf at most off" true (lru_edf <= adv.off_cost);
  check_bool "dlru much worse than dlru-edf" true (lru > 3 * lru_edf)

let test_edf_killer_shape () =
  (* Appendix B: EDF thrashes; its reconfiguration cost dominates, and
     grows with k - j while OFF stays fixed. *)
  let adv = Rrs_workload.Adversary.edf_killer ~n:4 ~delta:5 ~j:3 ~k:6 in
  let run policy = Engine.run ~record_events:false ~n:4 ~policy adv.instance in
  let edf = run (module Rrs_core.Policy_edf) in
  let edf_cost = Ledger.total_cost edf.ledger in
  check_bool "edf pays well above off" true (edf_cost > 2 * adv.off_cost);
  check_bool "edf cost is reconfiguration-dominated" true
    (Ledger.reconfig_cost edf.ledger > Ledger.drop_count edf.ledger)

let test_lru_edf_handles_both_adversaries () =
  let a = Rrs_workload.Adversary.lru_killer ~n:8 ~delta:2 ~j:5 ~k:9 in
  let b = Rrs_workload.Adversary.edf_killer ~n:4 ~delta:5 ~j:3 ~k:6 in
  List.iter
    (fun (adv : Rrs_workload.Adversary.lower_bound_input) ->
      let n = if adv == a then 8 else 4 in
      let cost = Engine.cost ~n ~policy:(module Rrs_core.Policy_lru_edf) adv.instance in
      check_bool
        (Printf.sprintf "dlru-edf within 4x of off on %s" adv.instance.name)
        true
        (cost <= 4 * adv.off_cost))
    [ a; b ]

let test_par_edf_optimal_drops () =
  (* 3 unit-bound jobs per round on 2 resources: exactly 1 drop/round. *)
  let i =
    Instance.make ~delta:1 ~bounds:[| 1; 1; 1 |]
      ~arrivals:(List.init 4 (fun r -> (r, [ (0, 1); (1, 1); (2, 1) ])))
      ()
  in
  let result = Rrs_core.Par_edf.run ~m:2 i in
  check "drops" 4 result.drops;
  check "executed" 8 result.executed;
  check_bool "not nice" false (Rrs_core.Par_edf.is_nice ~m:2 i);
  check_bool "nice with 3 resources" true (Rrs_core.Par_edf.is_nice ~m:3 i)

let test_par_edf_prefers_early_deadlines () =
  (* One resource, a tight job and a loose job arriving together: the
     tight one must be executed first; both complete. *)
  let i =
    Instance.make ~delta:1 ~bounds:[| 1; 4 |] ~arrivals:[ (0, [ (0, 1); (1, 1) ]) ] ()
  in
  let result = Rrs_core.Par_edf.run ~m:1 i in
  check "no drops" 0 result.drops;
  check "both executed" 2 result.executed

let quick name f = Alcotest.test_case name `Quick f
(* ---- allocation budget of the batch path ---- *)

(* [Engine.run ~record_events:false] at the benchmark sweep's large
   shape (256 colors, n = 64, Zipf arrivals): minor words per round stay
   within twice what the event-driven engine was measured to allocate
   (dlru 104, edf 109, dlru-edf 122, seq-edf 93 words per round, set-up
   included). What remains is proportional to events — drop lists, new
   deadline runs, admissions — not to colors or locations. The counts
   are deterministic for one compiler (measured with OCaml 5.1.1); the
   engine before that rewrite allocated ~3,000 words per round here. *)
let test_allocation_budget () =
  let horizon = 1_000 in
  let instance =
    Rrs_workload.Random_workloads.zipf ~seed:2 ~colors:256 ~delta:8
      ~bound_log_range:(2, 6) ~horizon ~load:0.2 ~s:1.1 ~rate_limited:true ()
  in
  let budget = [ ("dlru", 210.); ("edf", 220.); ("dlru-edf", 245.); ("seq-edf", 185.) ] in
  List.iter
    (fun (module P : Rrs_sim.Policy.POLICY) ->
      let before = Gc.minor_words () in
      ignore (Engine.run ~record_events:false ~n:64 ~policy:(module P) instance);
      let per_round = (Gc.minor_words () -. before) /. float_of_int horizon in
      let limit = List.assoc P.name budget in
      check_bool
        (Printf.sprintf "%s: %.1f minor words per round <= %.0f" P.name per_round limit)
        true (per_round <= limit))
    Rrs_core.Policies.all

(* [Instance.make] on the benchmark sweep's 256-color arrivals in the
   old generators' shape: color-major, one color per arrival (41,104
   arrivals over 4,000 rounds, up to 256 of them per round). 9 minor
   words per arrival were measured with OCaml 5.1.1 (a bucket cell and
   pair, and the cell of each round's one reversal, as its arrivals come
   in ascending colors); the bound is that plus 10 %. Bucketing and then
   copying every round allocated 27 words per arrival here, and
   re-normalizing a round at each of its arrivals 1,481. *)
let test_instance_build_allocation () =
  let reference =
    Rrs_workload.Random_workloads.zipf ~seed:2 ~colors:256 ~delta:8
      ~bound_log_range:(2, 6) ~horizon:4_000 ~load:0.2 ~s:1.1 ~rate_limited:true ()
  in
  let by_color = Array.make (Instance.num_colors reference) [] in
  for round = reference.horizon - 1 downto 0 do
    List.iter
      (fun (color, count) -> by_color.(color) <- (round, [ (color, count) ]) :: by_color.(color))
      reference.requests.(round)
  done;
  let arrivals = List.concat (Array.to_list by_color) in
  let count = List.length arrivals in
  let before = Gc.minor_words () in
  let built =
    Instance.make ~delta:reference.delta ~bounds:reference.bounds ~arrivals ()
  in
  let per_arrival = (Gc.minor_words () -. before) /. float_of_int count in
  check_bool "same instance" true
    (built.requests = reference.requests && built.horizon = reference.horizon);
  check_bool
    (Printf.sprintf "%.1f minor words per arrival (%d arrivals) <= 9.9" per_arrival count)
    true (per_arrival <= 9.9)

(* The generators at the benchmark sweep's shapes (8 colors over 20,000
   rounds, 256 colors over 4,000): minor words per generated job, within
   10 % of what was measured with OCaml 5.1.1 (uniform 1.65, zipf 1.95).
   What remains is the cell and the pair of each non-empty batch (6
   words) and, for zipf, a few closures per color; the draws allocate
   nothing. Through a [(round, request)] list and a recursive
   [Gen.poisson] this was 18.9 and 28.5 words per job. *)
let test_generator_allocation () =
  let per_job name generate limit =
    let before = Gc.minor_words () in
    let instance : Instance.t = generate () in
    let words = Gc.minor_words () -. before in
    let per_job = words /. float_of_int (Instance.total_jobs instance) in
    check_bool
      (Printf.sprintf "%s: %.2f minor words per job <= %.2f" name per_job limit)
      true (per_job <= limit)
  in
  per_job "uniform"
    (Rrs_workload.Random_workloads.uniform ~seed:1 ~colors:8 ~delta:4
       ~bound_log_range:(1, 4) ~horizon:20_000 ~load:0.9 ~rate_limited:true)
    1.82;
  per_job "zipf"
    (Rrs_workload.Random_workloads.zipf ~seed:2 ~colors:256 ~delta:8
       ~bound_log_range:(2, 6) ~horizon:4_000 ~load:0.2 ~s:1.1 ~rate_limited:true)
    2.15

let prop p = QCheck_alcotest.to_alcotest p

let suite =
  [
    ( "core.color_state",
      [
        quick "wrap grants eligibility" test_eligibility_via_wrap;
        quick "uncached boundary resets" test_eligibility_reset_when_uncached;
        quick "cached boundary keeps eligibility" test_eligibility_kept_when_cached;
        quick "off-boundary rounds are inert" test_non_boundary_rounds_do_nothing;
        quick "timestamp = latest wrap before boundary" test_timestamp_definition;
        quick "drop classification" test_drop_classification;
        quick "epoch counting" test_epoch_counting_includes_incomplete;
        prop prop_color_state_matches_reference;
        quick "a split bound group's deadline is refused" test_split_group_deadline_refused;
      ] );
    ( "core.ranking",
      [
        quick "edf color ranking" test_edf_ranking;
        quick "pending job ranking" test_job_ranking;
      ] );
    ( "core.cache_layout",
      [
        quick "keeps existing placements" test_layout_keeps_existing;
        quick "fills missing copies" test_layout_partial_keep;
        quick "rejects bad inputs" test_layout_errors;
        prop prop_layout_well_formed;
        prop prop_layout_minimizes_moves;
        prop prop_layout_reuse_matches_fresh;
      ] );
    ( "core.policies",
      [
        prop prop_lru_invariants;
        prop prop_edf_invariants;
        prop prop_lru_edf_invariants;
        prop prop_seq_edf_invariants;
        prop prop_policies_validate_on_unbatched;
        prop prop_unbatched_match_reference;
        quick "appendix A shape" test_lru_killer_shape;
        quick "appendix B shape" test_edf_killer_shape;
        quick "dlru-edf survives both adversaries" test_lru_edf_handles_both_adversaries;
      ] );
    ( "core.allocation",
      [
        quick "batch path within its budget" test_allocation_budget;
        quick "instance build merges each round once" test_instance_build_allocation;
        quick "generated jobs within their budget" test_generator_allocation;
      ] );
    ( "core.par_edf",
      [
        quick "drop optimality on overload" test_par_edf_optimal_drops;
        quick "earliest deadline first" test_par_edf_prefers_early_deadlines;
      ] );
  ]
