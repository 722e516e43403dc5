module Instance = Rrs_sim.Instance

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
