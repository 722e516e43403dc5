module Instance = Rrs_sim.Instance
module Schedule = Rrs_sim.Schedule
module Rebuild = Rrs_sim.Rebuild
module Engine = Rrs_sim.Engine

type result = {
  schedule : Schedule.t;
  inner_instance : Instance.t;
  inner : Engine.result;
  parent_of : int array;
}

let transform (instance : Instance.t) =
  if not (Instance.is_batched instance) then
    invalid_arg "Distribute.transform: instance is not batched";
  let num_colors = Instance.num_colors instance in
  let bounds = instance.bounds in
  (* Chunks needed per color: the largest request of color l uses
     ceil(count / D_l) subcolors. Every color keeps at least one subcolor
     so the two instances have aligned color universes. *)
  let chunks = Array.make num_colors 1 in
  Array.iter
    (fun request ->
      List.iter
        (fun (color, count) ->
          let needed = (count + bounds.(color) - 1) / bounds.(color) in
          if needed > chunks.(color) then chunks.(color) <- needed)
        request)
    instance.requests;
  (* Dense subcolor ids: subcolor (l, j) = base.(l) + j. *)
  let base = Array.make num_colors 0 in
  let total = ref 0 in
  Array.iteri
    (fun color needed ->
      base.(color) <- !total;
      total := !total + needed)
    chunks;
  let parent_of = Array.make !total 0 in
  Array.iteri
    (fun color needed ->
      for j = 0 to needed - 1 do
        parent_of.(base.(color) + j) <- color
      done)
    chunks;
  let inner_bounds = Array.map (fun subcolor -> bounds.(parent_of.(subcolor)))
      (Array.init !total (fun i -> i))
  in
  let b =
    Instance.builder
      ~name:(instance.name ^ "+distribute")
      ~horizon:instance.horizon ~delta:instance.delta ~bounds:inner_bounds ()
  in
  (* Chunks of [D_l] jobs, the last one partial, to subcolors in order. *)
  Array.iteri
    (fun round request ->
      List.iter
        (fun (color, count) ->
          let d = bounds.(color) in
          for j = 0 to ((count + d - 1) / d) - 1 do
            Instance.add b ~round ~color:(base.(color) + j) ~count:(min d (count - (j * d)))
          done)
        request)
    instance.requests;
  let inner = Instance.finish b in
  (inner, parent_of)

let default_policy : (module Rrs_sim.Policy.POLICY) =
  (module Policy_lru_edf)

let run ?(policy = default_policy) ~n instance =
  let inner_instance, parent_of = transform instance in
  let inner = Engine.run ~record_events:true ~n ~policy inner_instance in
  let actions =
    Reduction.actions_of_events
      ~map:(fun subcolor -> parent_of.(subcolor))
      (Rrs_sim.Ledger.events inner.ledger)
  in
  match Rebuild.rebuild ~instance ~n ~speed:1 ~actions with
  | Error message -> Error message
  | Ok schedule -> Ok { schedule; inner_instance; inner; parent_of }

let cost result = Schedule.total_cost result.schedule
