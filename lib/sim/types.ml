type color = int
type request = (color * int) list

type job = {
  color : color;
  arrival : int;
  deadline : int;
}

type phase = Drop | Arrival | Reconfiguration | Execution

let phase_to_string = function
  | Drop -> "drop"
  | Arrival -> "arrival"
  | Reconfiguration -> "reconfiguration"
  | Execution -> "execution"

(* Strictly ascending colors with positive counts: exactly the requests
   [normalize_request] returns unchanged. *)
let rec is_normalized = function
  | [] -> true
  | [ (_, count) ] -> count > 0
  | (color, count) :: ((next, _) :: _ as rest) ->
      count > 0 && color < next && is_normalized rest

(* Over positive counts sorted by color: sum each color's run. *)
let rec merge_runs = function
  | [] -> []
  | (color, count) :: rest -> add_run color count rest

and add_run color total = function
  | (c, count) :: rest when c = color -> add_run color (total + count) rest
  | rest -> (color, total) :: merge_runs rest

let normalize_request request =
  if is_normalized request then request
  else begin
    if List.exists (fun (_, count) -> count < 0) request then
      invalid_arg "Types.normalize_request: negative count";
    List.filter (fun (_, count) -> count > 0) request
    |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
    |> merge_runs
  end

let request_size request =
  List.fold_left (fun acc (_, count) -> acc + count) 0 request

let pp_request ppf request =
  let pp_pair ppf (color, count) = Format.fprintf ppf "%d:%d" color count in
  Format.fprintf ppf "[%a]" (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf " ") pp_pair) request
