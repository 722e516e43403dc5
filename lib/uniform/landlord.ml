module Types = Rrs_sim.Types
module Job_pool = Rrs_sim.Job_pool
module Sticky_set = Rrs_core.Sticky_set
module Cache_layout = Rrs_core.Cache_layout

let policy ~drop_costs : (module Rrs_sim.Policy.POLICY) =
  (module struct
    type t = {
      n : int;
      delta : int;
      demand : int array; (* weighted backlog accumulated while uncached *)
      credit : float array; (* Landlord credit of cached colors *)
      cached : Sticky_set.t;
      layout : Cache_layout.t;
      mutable faults : int;
      mutable evictions : int;
      mutable hits : int;
    }

    let name = "landlord"

    let create ~n ~delta ~bounds =
      let num_colors = Array.length bounds in
      if Array.length drop_costs <> num_colors then
        invalid_arg "Landlord.policy: drop_costs length mismatch";
      {
        n;
        delta;
        demand = Array.make num_colors 0;
        credit = Array.make num_colors 0.0;
        cached = Sticky_set.create ~num_colors;
        layout = Cache_layout.create ~n ~copies:2 ~num_colors;
        faults = 0;
        evictions = 0;
        hits = 0;
      }

    let on_drop _ ~round:_ ~dropped:_ = ()

    let on_arrival t ~round:_ ~request =
      List.iter
        (fun (color, count) ->
          if count > 0 then
            if Sticky_set.mem t.cached color then begin
              (* Hit: refresh the landlord credit. *)
              t.credit.(color) <- float_of_int t.delta;
              t.hits <- t.hits + 1
            end
            else
              t.demand.(color) <-
                min (t.demand.(color) + (drop_costs.(color) * count))
                  (4 * t.delta))
        request

    let evict_for_room t =
      (* The Landlord step: charge everyone the minimum credit, evict the
         zeroed tenants (lowest credit first). *)
      let min_credit = ref infinity in
      for i = 0 to Sticky_set.cardinal t.cached - 1 do
        min_credit := Float.min !min_credit t.credit.(Sticky_set.nth t.cached i)
      done;
      if Float.is_finite !min_credit then begin
        let victim = ref (-1) in
        for i = 0 to Sticky_set.cardinal t.cached - 1 do
          let color = Sticky_set.nth t.cached i in
          t.credit.(color) <- t.credit.(color) -. !min_credit;
          if t.credit.(color) <= 1e-9 && (!victim < 0 || color < !victim) then
            victim := color
        done;
        if !victim >= 0 then begin
          Sticky_set.remove t.cached !victim;
          t.evictions <- t.evictions + 1
        end
      end

    let reconfigure t (view : Rrs_sim.Policy.view) =
      let capacity = t.n / 2 in
      (* Admit faulting colors: nonidle, uncached, demand >= delta.
         Process by descending demand so the hottest weighted backlog
         wins ties for room. *)
      let faulting =
        Job_pool.nonidle_colors view.pool
        |> List.filter (fun color ->
               (not (Sticky_set.mem t.cached color)) && t.demand.(color) >= t.delta)
        |> List.sort (fun a b -> Int.compare t.demand.(b) t.demand.(a))
      in
      List.iter
        (fun color ->
          if not (Sticky_set.mem t.cached color) then begin
            let guard = ref (2 * capacity) in
            while Sticky_set.cardinal t.cached >= capacity && !guard > 0 do
              evict_for_room t;
              decr guard
            done;
            if Sticky_set.cardinal t.cached < capacity then begin
              Sticky_set.add t.cached color;
              t.credit.(color) <- float_of_int t.delta;
              t.demand.(color) <- 0;
              t.faults <- t.faults + 1
            end
          end)
        faulting;
      for i = 0 to Sticky_set.cardinal t.cached - 1 do
        Cache_layout.want t.layout (Sticky_set.nth t.cached i)
      done;
      Cache_layout.assign t.layout ~current:view.assignment
        ~order:(Sticky_set.iter_placement_order t.cached)

    let stats t =
      [
        ("cached", Sticky_set.cardinal t.cached);
        ("faults", t.faults);
        ("evictions", t.evictions);
        ("hits", t.hits);
      ]

    module Json = Rrs_sim.Event_sink.Json

    (* Credits are fractional, so they travel as a comma-joined list of
       hex floats ("%h") inside one JSON string — exact round-trip, no
       decimal rounding. *)
    let serialize t =
      let credits =
        Array.to_list t.credit
        |> List.map (Printf.sprintf "%h")
        |> String.concat ","
      in
      let cached = Sticky_set.to_sorted_list t.cached in
      Printf.sprintf
        "{\"demand\":%s,\"credit\":%s,\"cached\":%s,\"faults\":%d,\
         \"evictions\":%d,\"hits\":%d}"
        (Json.ints (Array.to_list t.demand))
        (Json.escape credits) (Json.ints cached) t.faults t.evictions t.hits

    let deserialize t blob =
      let fields = Json.parse_fields blob in
      let num_colors = Array.length t.demand in
      let demand = Json.ints_field fields "demand" in
      if Array.length demand <> num_colors then
        raise (Json.Parse_error "field \"demand\": length mismatch");
      let credits =
        match String.split_on_char ',' (Json.str_field fields "credit") with
        | [ "" ] -> [||]
        | parts ->
            Array.of_list
              (List.map
                 (fun part ->
                   match float_of_string_opt part with
                   | Some value -> value
                   | None ->
                       raise (Json.Parse_error "field \"credit\": bad float"))
                 parts)
      in
      if Array.length credits <> num_colors then
        raise (Json.Parse_error "field \"credit\": length mismatch");
      Array.blit demand 0 t.demand 0 num_colors;
      Array.blit credits 0 t.credit 0 num_colors;
      t.faults <- Json.int_field fields "faults";
      t.evictions <- Json.int_field fields "evictions";
      t.hits <- Json.int_field fields "hits";
      Sticky_set.restore t.cached (Json.ints_field fields "cached")
  end)
