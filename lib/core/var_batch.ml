module Instance = Rrs_sim.Instance
module Schedule = Rrs_sim.Schedule
module Rebuild = Rrs_sim.Rebuild

type result = {
  schedule : Schedule.t;
  batched_instance : Instance.t;
  distribute : Distribute.result;
}

let effective_bound d =
  if d < 1 then invalid_arg "Var_batch.effective_bound: bound must be >= 1";
  if d = 1 then 1
  else begin
    (* Largest power of two <= d / 2. *)
    let target = d / 2 in
    let q = ref 1 in
    while !q * 2 <= target do
      q := !q * 2
    done;
    !q
  end

let transform (instance : Instance.t) =
  let bounds = instance.bounds in
  let effective = Array.map effective_bound bounds in
  let b =
    Instance.builder ~name:(instance.name ^ "+varbatch") ~delta:instance.delta
      ~bounds:effective ()
  in
  Array.iteri
    (fun round request ->
      List.iter
        (fun (color, count) ->
          let delayed =
            if bounds.(color) = 1 then round
            else
              let q = effective.(color) in
              ((round / q) + 1) * q
          in
          Instance.add b ~round:delayed ~color ~count)
        request)
    instance.requests;
  Instance.finish b

let run ?policy ~n instance =
  let batched_instance = transform instance in
  match Distribute.run ?policy ~n batched_instance with
  | Error message -> Error ("inner distribute failed: " ^ message)
  | Ok distribute -> (
      (* Replay the inner schedule's actions against the original
         instance: colors are unchanged by the delaying step, only job
         timings differ, and every delayed window is inside the original
         one, so earliest-deadline replay succeeds. *)
      let actions =
        Reduction.actions_of_events ~map:Fun.id
          (Rrs_sim.Ledger.events distribute.Distribute.inner.ledger
          |> List.map (fun event ->
                 match event with
                 | Rrs_sim.Ledger.Reconfig r ->
                     Rrs_sim.Ledger.Reconfig
                       { r with next = distribute.Distribute.parent_of.(r.next) }
                 | Rrs_sim.Ledger.Execute e ->
                     Rrs_sim.Ledger.Execute
                       { e with color = distribute.Distribute.parent_of.(e.color) }
                 | Rrs_sim.Ledger.Drop _ as d -> d
                 (* inner runs inject no faults; relabel defensively *)
                 | Rrs_sim.Ledger.Reconfig_failed r ->
                     Rrs_sim.Ledger.Reconfig_failed
                       {
                         r with
                         attempted = distribute.Distribute.parent_of.(r.attempted);
                       }
                 | (Rrs_sim.Ledger.Crash _ | Rrs_sim.Ledger.Repair _) as e -> e))
      in
      match Rebuild.rebuild ~instance ~n ~speed:1 ~actions with
      | Error message -> Error ("replay on original instance failed: " ^ message)
      | Ok schedule -> Ok { schedule; batched_instance; distribute })

let cost result = Schedule.total_cost result.schedule
