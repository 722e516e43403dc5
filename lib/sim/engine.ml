(* The batch engine is a loop over the incremental {!Stepper}: feed the
   round's request, step. One code path serves both pre-materialized
   [Instance] runs and the online serving layer, and the 260+ existing
   tests pin the stepper's behavior (streams stay byte-identical). *)

let phase_names = Stepper.phase_names

type result = Stepper.result = {
  ledger : Ledger.t;
  stats : (string * int) list;
  final_assignment : Types.color option array;
  profile : Rrs_obs.Profile.t option;
}

let run ?(speed = 1) ?(record_events = true) ?sink ?(profile = false)
    ?faults ~n ~policy:(module P : Policy.POLICY) (instance : Instance.t) =
  if n < 1 then invalid_arg "Engine.run: n must be >= 1";
  if speed < 1 then invalid_arg "Engine.run: speed must be >= 1";
  Log.debug (fun m ->
      m "run %s: policy=%s n=%d speed=%d horizon=%d" instance.Instance.name
        P.name n speed instance.Instance.horizon);
  let stepper =
    Stepper.create ~record_events ?sink ~profile ?faults
      ~label:"Engine.run" ~policy:(module P)
      {
        Stepper.name = instance.Instance.name;
        delta = instance.delta;
        bounds = instance.bounds;
        n;
        speed;
        horizon = instance.horizon;
      }
  in
  (* A policy exception mid-run must not leave a silently truncated
     stream: close it with an explicit aborted record, flush, re-raise. *)
  (match
     for round = 0 to instance.horizon - 1 do
       Stepper.feed stepper instance.requests.(round);
       Stepper.step stepper
     done
   with
  | () -> ()
  | exception e ->
      let backtrace = Printexc.get_raw_backtrace () in
      Stepper.abort stepper ~reason:(Printexc.to_string e);
      Printexc.raise_with_backtrace e backtrace);
  let result = Stepper.finish stepper in
  Log.debug (fun m ->
      m "done %s: cost=%d reconfigs=%d drops=%d" instance.Instance.name
        (Ledger.total_cost result.ledger)
        (Ledger.reconfig_count result.ledger)
        (Ledger.drop_count result.ledger));
  result

let cost ?speed ?faults ~n ~policy instance =
  let { ledger; _ } =
    run ?speed ?faults ~record_events:false ~n ~policy instance
  in
  Ledger.total_cost ledger
