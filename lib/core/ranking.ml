module Job_pool = Rrs_sim.Job_pool

let edf_compare state pool ~bounds a b =
  let nonidle_a = Job_pool.nonidle pool a in
  let nonidle_b = Job_pool.nonidle pool b in
  if nonidle_a <> nonidle_b then Bool.compare nonidle_b nonidle_a (* nonidle first *)
  else
    let by_deadline =
      Int.compare (Color_state.deadline state a) (Color_state.deadline state b)
    in
    if by_deadline <> 0 then by_deadline
    else
      let by_bound = Int.compare bounds.(a) bounds.(b) in
      if by_bound <> 0 then by_bound else Int.compare a b

let edf_worst state pool ~bounds set =
  let worst = ref (Sticky_set.nth set 0) in
  for i = 1 to Sticky_set.cardinal set - 1 do
    let color = Sticky_set.nth set i in
    if edf_compare state pool ~bounds color !worst > 0 then worst := color
  done;
  !worst

let edf_admit state pool ~bounds set ~capacity color =
  Sticky_set.add set color;
  Sticky_set.cardinal set > capacity
  && begin
       Sticky_set.remove set (edf_worst state pool ~bounds set);
       true
     end

let job_compare pool ~bounds a b =
  let deadline color =
    match Job_pool.earliest_deadline pool color with
    | Some d -> d
    | None -> invalid_arg "Ranking.job_compare: idle color"
  in
  let by_deadline = Int.compare (deadline a) (deadline b) in
  if by_deadline <> 0 then by_deadline
  else
    let by_bound = Int.compare bounds.(a) bounds.(b) in
    if by_bound <> 0 then by_bound else Int.compare a b
