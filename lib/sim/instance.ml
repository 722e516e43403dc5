type t = {
  name : string;
  delta : int;
  bounds : int array;
  requests : Types.request array;
  horizon : int;
}

(* What refuses an arrival. *)
type refusal = Negative_round | Unknown_color of int

type builder = {
  b_name : string;
  b_horizon : int option;
  b_delta : int;
  b_bounds : int array;
  (* [buckets.(round)]: the round's entries, last added first. Grown by
     doubling; rounds at or past an explicit horizon are not kept. *)
  mutable buckets : Types.request array;
  (* Every entry so far was added below its bucket's head, so every
     bucket is in strictly ascending colors. Checked as each entry is
     added, while the head is likely still cached. *)
  mutable ascending : bool;
  mutable max_deadline : int;
  mutable negative_count : bool;
  (* The id of the arrival being added, and the first arrival refused
     with what refused it. *)
  mutable arrival : int;
  mutable refused : (int * refusal) option;
}

let builder ?(name = "instance") ?horizon ~delta ~bounds () =
  if delta < 1 then invalid_arg "Instance.make: delta must be >= 1";
  if Array.length bounds = 0 then invalid_arg "Instance.make: no colors";
  Array.iteri
    (fun c d ->
      if d < 1 then
        invalid_arg (Printf.sprintf "Instance.make: bound of color %d is %d" c d))
    bounds;
  {
    b_name = name;
    b_horizon = horizon;
    b_delta = delta;
    b_bounds = bounds;
    buckets = [||];
    ascending = true;
    max_deadline = 0;
    negative_count = false;
    arrival = 0;
    refused = None;
  }

(* The first arrival refused is reported: its negative round, checked
   before any of its entries is added, or else its least unknown color. *)
let refuse_color b color =
  match b.refused with
  | None -> b.refused <- Some (b.arrival, Unknown_color color)
  | Some (arrival, Unknown_color least) when arrival = b.arrival && color < least ->
      b.refused <- Some (arrival, Unknown_color color)
  | Some _ -> ()

let grow b round =
  let buckets = Array.make (max (round + 1) (2 * Array.length b.buckets)) [] in
  Array.blit b.buckets 0 buckets 0 (Array.length b.buckets);
  b.buckets <- buckets

(* One entry of the current arrival. Only a positive count of a known
   color at a round the instance can hold is bucketed. *)
let add_entry b ~round ~color ~count =
  if count < 0 then b.negative_count <- true
  else if count > 0 then
    if color < 0 || color >= Array.length b.b_bounds then refuse_color b color
    else if round >= 0 then begin
      let deadline = round + b.b_bounds.(color) in
      if deadline > b.max_deadline then b.max_deadline <- deadline;
      match b.b_horizon with
      | Some horizon when round >= horizon -> ()
      | _ ->
          if round >= Array.length b.buckets then grow b round;
          let bucket = b.buckets.(round) in
          (match bucket with (head, _) :: _ when head <= color -> b.ascending <- false | _ -> ());
          b.buckets.(round) <- (color, count) :: bucket
    end

let start_arrival b round =
  b.arrival <- b.arrival + 1;
  if round < 0 && Option.is_none b.refused then b.refused <- Some (b.arrival, Negative_round)

let add b ~round ~color ~count =
  start_arrival b round;
  add_entry b ~round ~color ~count

let rec ascending = function
  | (a, _) :: ((b, _) :: _ as rest) -> a < b && ascending rest
  | _ -> true

let rec descending = function
  | (a, _) :: ((b, _) :: _ as rest) -> a > b && descending rest
  | _ -> true

(* One round's entries (positive counts, last added first) in ascending
   colors, a color's counts summed. Entries added in ascending or
   descending color order are kept or reversed; only others are sorted,
   and there a color whose counts sum past [max_int] is refused instead
   of wrapped. *)
let order_round round entries =
  if ascending entries then entries
  else if descending entries then List.rev entries
  else
    let rec merge = function
      | [] -> []
      | (color, count) :: rest -> sum color count rest
    and sum color total = function
      | (c, count) :: rest when c = color ->
          if total > max_int - count then
            invalid_arg
              (Printf.sprintf "Instance.make: job count overflow (color %d, round %d)"
                 color round);
          sum color (total + count) rest
      | rest -> (color, total) :: merge rest
    in
    merge (List.sort (fun (a, _) (b, _) -> Int.compare a b) entries)

let finish b =
  if b.negative_count then invalid_arg "Types.normalize_request: negative count";
  (match b.refused with
  | None -> ()
  | Some (_, Negative_round) -> invalid_arg "Instance.make: negative round"
  | Some (_, Unknown_color color) ->
      invalid_arg (Printf.sprintf "Instance.make: unknown color %d" color));
  let horizon =
    match b.b_horizon with
    | None -> max 1 (b.max_deadline + 1)
    | Some h ->
        if h < b.max_deadline + 1 then
          invalid_arg
            (Printf.sprintf "Instance.make: horizon %d truncates deadline %d" h
               b.max_deadline);
        h
  in
  (* Every bucketed round is before its deadline, so before [horizon]. *)
  let requests = Array.make horizon [] in
  Array.blit b.buckets 0 requests 0 (min horizon (Array.length b.buckets));
  if not b.ascending then
    Array.iteri
      (fun round entries ->
        match entries with [] | [ _ ] -> () | _ -> requests.(round) <- order_round round entries)
      requests;
  { name = b.b_name; delta = b.b_delta; bounds = b.b_bounds; requests; horizon }

(* Last entry first, so a normalized request lands in its bucket as is. *)
let rec add_request b round = function
  | [] -> ()
  | (color, count) :: rest ->
      add_request b round rest;
      add_entry b ~round ~color ~count

let make ?name ?horizon ~delta ~bounds ~arrivals () =
  let b = builder ?name ?horizon ~delta ~bounds () in
  List.iter
    (fun (round, request) ->
      start_arrival b round;
      add_request b round request)
    arrivals;
  finish b

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
