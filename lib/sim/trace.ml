let to_string (instance : Instance.t) =
  let buffer = Buffer.create 1024 in
  Buffer.add_string buffer "rrs-trace v1\n";
  Buffer.add_string buffer (Printf.sprintf "name %s\n" instance.name);
  Buffer.add_string buffer (Printf.sprintf "delta %d\n" instance.delta);
  Buffer.add_string buffer "bounds";
  Array.iter (fun d -> Buffer.add_string buffer (Printf.sprintf " %d" d)) instance.bounds;
  Buffer.add_char buffer '\n';
  List.iter
    (fun (round, request) ->
      Buffer.add_string buffer (Printf.sprintf "arrival %d" round);
      List.iter
        (fun (color, count) ->
          Buffer.add_string buffer (Printf.sprintf " %d:%d" color count))
        request;
      Buffer.add_char buffer '\n')
    (Instance.nonempty_arrivals instance);
  Buffer.add_string buffer "end\n";
  Buffer.contents buffer

type parse_state = {
  mutable name : string;
  mutable delta : int option;
  mutable bounds : int array option;
  mutable arrivals : (int * Types.request) list;
  mutable finished : bool;
}

let parse_pair token =
  match String.split_on_char ':' token with
  | [ color; count ] -> (
      match (int_of_string_opt color, int_of_string_opt count) with
      | Some c, Some k -> Ok (c, k)
      | _ -> Error (Printf.sprintf "bad color:count pair %S" token))
  | _ -> Error (Printf.sprintf "bad color:count pair %S" token)

let of_string text =
  let state =
    { name = "trace"; delta = None; bounds = None; arrivals = []; finished = false }
  in
  let lines = String.split_on_char '\n' text in
  let error = ref None in
  let fail lineno message =
    if !error = None then error := Some (Printf.sprintf "line %d: %s" lineno message)
  in
  List.iteri
    (fun index line ->
      let lineno = index + 1 in
      let line =
        match String.index_opt line '#' with
        | None -> line
        | Some i -> String.sub line 0 i
      in
      let tokens =
        String.split_on_char ' ' (String.trim line)
        |> List.filter (fun token -> token <> "")
      in
      if !error = None then
        if state.finished then begin
          (* Directives after [end] signal a corrupt or concatenated
             file; accepting them would silently mis-parse it. *)
          match tokens with
          | [] -> ()
          | token :: _ ->
              fail lineno (Printf.sprintf "directive %S after end" token)
        end
        else
        match tokens with
        | [] -> ()
        | [ "rrs-trace"; "v1" ] -> ()
        | "name" :: rest -> state.name <- String.concat " " rest
        | [ "delta"; value ] -> (
            if state.delta <> None then fail lineno "duplicate delta"
            else
              match int_of_string_opt value with
              | Some d -> state.delta <- Some d
              | None -> fail lineno "bad delta")
        | "bounds" :: rest ->
            if state.bounds <> None then fail lineno "duplicate bounds"
            else
              let bounds = List.filter_map int_of_string_opt rest in
              if List.length bounds <> List.length rest then fail lineno "bad bounds"
              else state.bounds <- Some (Array.of_list bounds)
        | "arrival" :: round :: pairs -> (
            match int_of_string_opt round with
            | None -> fail lineno "bad arrival round"
            | Some round ->
                let parsed = List.map parse_pair pairs in
                let request =
                  List.filter_map (function Ok pair -> Some pair | Error _ -> None)
                    parsed
                in
                List.iter
                  (function Error message -> fail lineno message | Ok _ -> ())
                  parsed;
                state.arrivals <- (round, request) :: state.arrivals)
        | [ "end" ] -> state.finished <- true
        | token :: _ -> fail lineno (Printf.sprintf "unknown directive %S" token))
    lines;
  match !error with
  | Some message -> Error message
  | None -> (
      match (state.delta, state.bounds) with
      | None, _ -> Error "missing delta"
      | _, None -> Error "missing bounds"
      | Some delta, Some bounds -> (
          try
            Ok
              (Instance.make ~name:state.name ~delta ~bounds
                 ~arrivals:(List.rev state.arrivals) ())
          with Invalid_argument message -> Error message))

let save instance ~path = Atomic_file.write ~path (to_string instance)

let load ~path =
  match
    let channel = open_in path in
    Fun.protect
      ~finally:(fun () -> close_in channel)
      (fun () -> really_input_string channel (in_channel_length channel))
  with
  | text -> of_string text
  | exception Sys_error message -> Error message
