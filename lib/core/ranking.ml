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

type admission = {
  state : Color_state.t;
  order : Color_state.order;
  cached : Sticky_set.t;
  capacity : int;
  bounds : int array;
  skip : Rrs_sim.Types.color -> bool;
  (* The last scan's candidates, in rank order, [0 .. found - 1], kept
     while no color can have become one since: see [admit]. *)
  candidates : int array;
  mutable found : int;
  mutable version : int; (* [Color_state.version] of [order] at that scan *)
  mutable valid : bool;
  mutable pool : Job_pool.t; (* the pool of the scan in progress *)
  mutable admitted : int; (* colors admitted by the last [admit] *)
  collect : Rrs_sim.Types.color -> bool;
}

let admission state order cached ~capacity ~bounds ~skip =
  let rec a =
    {
      state;
      order;
      cached;
      capacity;
      bounds;
      skip;
      candidates = Array.make (max capacity 0) 0;
      found = 0;
      version = 0;
      valid = false;
      pool = Job_pool.create ~num_colors:0;
      admitted = 0;
      collect =
        (fun color ->
          if Job_pool.nonidle a.pool color && not (skip color) then begin
            a.candidates.(a.found) <- color;
            a.found <- a.found + 1
          end;
          a.found < capacity);
    }
  in
  a

let invalidate a = a.valid <- false

let admit a pool =
  let version = Color_state.version a.state a.order in
  a.pool <- pool;
  if a.valid && version = a.version then begin
    (* Since the last scan no color has become nonidle, the order has not
       moved and nothing skipped has changed: the candidates are the last
       ones that are still nonidle, then, if that scan stopped at
       [capacity] and some dropped out, the next ones after the last. *)
    let full = a.found = a.capacity in
    let last = if a.found > 0 then a.candidates.(a.found - 1) else -1 in
    let kept = ref 0 in
    for i = 0 to a.found - 1 do
      let color = a.candidates.(i) in
      if Job_pool.nonidle pool color then begin
        a.candidates.(!kept) <- color;
        incr kept
      end
    done;
    a.found <- !kept;
    if full && a.found < a.capacity then
      Color_state.iter_ranked_after a.state a.order last a.collect
  end
  else if a.capacity > 0 then begin
    a.found <- 0;
    Color_state.iter_ranked a.state a.order a.collect;
    a.version <- version;
    a.valid <- true
  end;
  a.admitted <- 0;
  let evictions = ref 0 in
  for i = 0 to a.found - 1 do
    let color = a.candidates.(i) in
    if not (Sticky_set.mem a.cached color) then begin
      a.admitted <- a.admitted + 1;
      if edf_admit a.state pool ~bounds:a.bounds a.cached ~capacity:a.capacity color then
        incr evictions
    end
  done;
  !evictions

let admitted a = a.admitted
