type t = {
  name : string;
  delta : int;
  bounds : int array;
  requests : Types.request array;
  horizon : int;
}

(* Colors with a positive count are the ones a request carries once
   normalized; only those are checked against [bounds]. *)
let unknown_color num_colors (color, count) =
  count > 0 && (color < 0 || color >= num_colors)

(* One round's entries merged as [Types.normalize_request] merges them
   (ascending colors, positive counts), except that a color whose counts
   sum past [max_int] is refused instead of wrapped. *)
let merge_round round entries =
  if Types.is_normalized entries then entries
  else
    let rec merge = function
      | [] -> []
      | (color, count) :: rest -> add color count rest
    and add color total = function
      | (c, count) :: rest when c = color ->
          if total > max_int - count then
            invalid_arg
              (Printf.sprintf "Instance.make: job count overflow (color %d, round %d)"
                 color round);
          add color (total + count) rest
      | rest -> (color, total) :: merge rest
    in
    List.filter (fun (_, count) -> count > 0) entries
    |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
    |> merge

let make ?(name = "instance") ?horizon ~delta ~bounds ~arrivals () =
  if delta < 1 then invalid_arg "Instance.make: delta must be >= 1";
  if Array.length bounds = 0 then invalid_arg "Instance.make: no colors";
  Array.iteri
    (fun c d ->
      if d < 1 then
        invalid_arg (Printf.sprintf "Instance.make: bound of color %d is %d" c d))
    bounds;
  let num_colors = Array.length bounds in
  (* A negative count anywhere is reported first, in the words of
     [Types.normalize_request]. *)
  List.iter
    (fun (_, request) ->
      List.iter
        (fun (_, count) ->
          if count < 0 then invalid_arg "Types.normalize_request: negative count")
        request)
    arrivals;
  let max_deadline = ref 0 in
  List.iter
    (fun (round, request) ->
      if round < 0 then invalid_arg "Instance.make: negative round";
      (* Report the least unknown color: the first a sorted request meets. *)
      (match List.filter (unknown_color num_colors) request with
      | [] -> ()
      | unknown ->
          invalid_arg
            (Printf.sprintf "Instance.make: unknown color %d"
               (List.fold_left (fun least (color, _) -> min least color) max_int unknown)));
      List.iter
        (fun (color, count) ->
          if count > 0 then max_deadline := max !max_deadline (round + bounds.(color)))
        request)
    arrivals;
  let horizon =
    match horizon with
    | None -> max 1 (!max_deadline + 1)
    | Some h ->
        if h < !max_deadline + 1 then
          invalid_arg
            (Printf.sprintf "Instance.make: horizon %d truncates deadline %d" h
               !max_deadline);
        h
  in
  let requests = Array.make horizon [] in
  (* Bucket each round's entries, last first, then merge each round once.
     Each round's list and its pairs are fresh and allocated in round
     order, so the engine reads one round's arrivals from adjacent memory,
     not from pairs spread over the whole arrival list. An arrival at or
     past the horizon carries no job (the horizon covers every deadline),
     so it has nothing to bucket. *)
  List.iter
    (fun (round, request) ->
      if round < horizon then
        requests.(round) <- List.rev_append request requests.(round))
    arrivals;
  Array.iteri
    (fun round reversed ->
      if reversed <> [] then
        requests.(round) <-
          merge_round round (List.rev_map (fun (color, count) -> (color, count)) reversed))
    requests;
  { name; delta; bounds; requests; horizon }

let num_colors t = Array.length t.bounds

let total_jobs t =
  Array.fold_left (fun acc request -> acc + Types.request_size request) 0 t.requests

let jobs_of_color t color =
  Array.fold_left
    (fun acc request ->
      List.fold_left
        (fun acc (c, count) -> if c = color then acc + count else acc)
        acc request)
    0 t.requests

let for_all_arrivals t predicate =
  let ok = ref true in
  Array.iteri
    (fun round request ->
      List.iter
        (fun (color, count) -> if not (predicate round color count) then ok := false)
        request)
    t.requests;
  !ok

let is_batched t = for_all_arrivals t (fun round color _ -> round mod t.bounds.(color) = 0)

let is_rate_limited t =
  is_batched t && for_all_arrivals t (fun _ color count -> count <= t.bounds.(color))

let is_pow2 d = d > 0 && d land (d - 1) = 0
let bounds_pow2 t = Array.for_all is_pow2 t.bounds

let iter_jobs t f =
  Array.iteri
    (fun round request ->
      List.iter
        (fun (color, count) ->
          for _ = 1 to count do
            f { Types.color; arrival = round; deadline = round + t.bounds.(color) }
          done)
        request)
    t.requests

let nonempty_arrivals t =
  let acc = ref [] in
  for round = t.horizon - 1 downto 0 do
    if t.requests.(round) <> [] then acc := (round, t.requests.(round)) :: !acc
  done;
  !acc

let pp_summary ppf t =
  Format.fprintf ppf
    "@[<v>instance %s: delta=%d colors=%d horizon=%d jobs=%d batched=%b \
     rate-limited=%b pow2=%b@]"
    t.name t.delta (num_colors t) t.horizon (total_jobs t) (is_batched t)
    (is_rate_limited t) (bounds_pow2 t)
