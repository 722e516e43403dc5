(* The reference model of instance construction: [Types.normalize_request]
   and [Instance.make] as they were before construction became one pass
   (each arrival re-normalized its whole round: the round's list was
   appended to, then merged through a fresh Hashtbl and sorted). Kept
   verbatim, apart from returning the fields as a tuple, as the oracle
   the qcheck property in [test_sim] compares [Instance.make] against:
   equal requests and horizon, and the same [Invalid_argument] message
   whenever this raises. *)

let normalize_request request =
  let table = Hashtbl.create 8 in
  List.iter
    (fun (color, count) ->
      if count < 0 then invalid_arg "Types.normalize_request: negative count";
      if count > 0 then
        let current = try Hashtbl.find table color with Not_found -> 0 in
        Hashtbl.replace table color (current + count))
    request;
  Hashtbl.fold (fun color count acc -> (color, count) :: acc) table []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

(* Returns [(requests, horizon)]. *)
let make ?horizon ~delta ~bounds ~arrivals () =
  if delta < 1 then invalid_arg "Instance.make: delta must be >= 1";
  if Array.length bounds = 0 then invalid_arg "Instance.make: no colors";
  Array.iteri
    (fun c d ->
      if d < 1 then
        invalid_arg (Printf.sprintf "Instance.make: bound of color %d is %d" c d))
    bounds;
  let num_colors = Array.length bounds in
  let arrivals =
    List.map (fun (round, request) -> (round, normalize_request request)) arrivals
  in
  let max_deadline = ref 0 in
  List.iter
    (fun (round, request) ->
      if round < 0 then invalid_arg "Instance.make: negative round";
      List.iter
        (fun (color, _count) ->
          if color < 0 || color >= num_colors then
            invalid_arg (Printf.sprintf "Instance.make: unknown color %d" color);
          max_deadline := max !max_deadline (round + bounds.(color)))
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
  List.iter
    (fun (round, request) ->
      requests.(round) <- normalize_request (requests.(round) @ request))
    arrivals;
  (requests, horizon)
