module Json = Event_sink.Json

type crash = { location : int; from_round : int; until_round : int }
type reconfig_failure = { rf_round : int; rf_location : int }

type plan = {
  name : string;
  seed : int;
  crashes : crash list;
  reconfig_failures : reconfig_failure list;
}

let schema_version = "rrs-faults/1"

exception Invalid of string

let invalid fmt = Printf.ksprintf (fun s -> raise (Invalid s)) fmt

let validate_crash { location; from_round; until_round } =
  if location < 0 then invalid "crash window at negative location %d" location;
  if from_round < 0 then
    invalid "crash window at location %d starts at negative round %d" location
      from_round;
  if until_round <= from_round then
    invalid "crash window at location %d is empty ([%d, %d))" location
      from_round until_round

let validate_failure { rf_round; rf_location } =
  if rf_location < 0 then
    invalid "reconfig failure at negative location %d" rf_location;
  if rf_round < 0 then
    invalid "reconfig failure at location %d in negative round %d" rf_location
      rf_round

(* Canonical form: crashes sorted by (location, from) with overlapping or
   touching windows of one location merged — so a location never repairs
   and re-crashes within the same round — and failures sorted/deduped. *)
let normalize crashes reconfig_failures =
  let crashes =
    List.sort
      (fun a b ->
        match Int.compare a.location b.location with
        | 0 -> Int.compare a.from_round b.from_round
        | c -> c)
      crashes
  in
  let crashes =
    List.fold_left
      (fun acc window ->
        match acc with
        | previous :: rest
          when previous.location = window.location
               && window.from_round <= previous.until_round ->
            { previous with
              until_round = max previous.until_round window.until_round }
            :: rest
        | _ -> window :: acc)
      [] crashes
    |> List.rev
  in
  let reconfig_failures =
    List.sort_uniq
      (fun a b ->
        match Int.compare a.rf_round b.rf_round with
        | 0 -> Int.compare a.rf_location b.rf_location
        | c -> c)
      reconfig_failures
  in
  (crashes, reconfig_failures)

let make ?(name = "faults") ?(seed = 0) ~crashes ~reconfig_failures () =
  List.iter validate_crash crashes;
  List.iter validate_failure reconfig_failures;
  let crashes, reconfig_failures = normalize crashes reconfig_failures in
  { name; seed; crashes; reconfig_failures }

let empty = { name = "empty"; seed = 0; crashes = []; reconfig_failures = [] }

let is_empty plan = plan.crashes = [] && plan.reconfig_failures = []

let crash_count plan = List.length plan.crashes
let reconfig_failure_count plan = List.length plan.reconfig_failures

let offline_location_rounds plan =
  List.fold_left
    (fun acc { from_round; until_round; _ } -> acc + until_round - from_round)
    0 plan.crashes

(* ---- serialization (JSONL, one fault per line) ---- *)

let to_string plan =
  let buffer = Buffer.create 256 in
  Buffer.add_string buffer "{\"schema\":";
  Buffer.add_string buffer (Json.escape schema_version);
  Buffer.add_string buffer ",\"name\":";
  Buffer.add_string buffer (Json.escape plan.name);
  Buffer.add_string buffer (Printf.sprintf ",\"seed\":%d}\n" plan.seed);
  List.iter
    (fun { location; from_round; until_round } ->
      Buffer.add_string buffer
        (Printf.sprintf
           "{\"type\":\"crash\",\"location\":%d,\"from\":%d,\"until\":%d}\n"
           location from_round until_round))
    plan.crashes;
  List.iter
    (fun { rf_round; rf_location } ->
      Buffer.add_string buffer
        (Printf.sprintf
           "{\"type\":\"reconfig_fail\",\"round\":%d,\"location\":%d}\n"
           rf_round rf_location))
    plan.reconfig_failures;
  Buffer.contents buffer

let save plan ~path = Atomic_file.write ~path (to_string plan)

let parse text =
  let lines =
    String.split_on_char '\n' text
    |> List.filter (fun line -> String.trim line <> "")
  in
  match lines with
  | [] -> Error "empty fault plan (no schema header)"
  | header :: rest -> (
      try
        let fields = Json.parse_fields header in
        let schema = Json.str_field fields "schema" in
        if schema <> schema_version then
          Error
            (Printf.sprintf "unsupported fault schema %S (want %S)" schema
               schema_version)
        else begin
          let name = Json.str_field fields "name" in
          let seed = Json.opt_int_field fields "seed" ~default:0 in
          let crashes = ref [] and failures = ref [] in
          List.iteri
            (fun index line ->
              let fields = Json.parse_fields line in
              match Json.str_field fields "type" with
              | "crash" ->
                  crashes :=
                    {
                      location = Json.int_field fields "location";
                      from_round = Json.int_field fields "from";
                      until_round = Json.int_field fields "until";
                    }
                    :: !crashes
              | "reconfig_fail" ->
                  failures :=
                    {
                      rf_round = Json.int_field fields "round";
                      rf_location = Json.int_field fields "location";
                    }
                    :: !failures
              | other ->
                  raise
                    (Json.Parse_error
                       (Printf.sprintf "line %d: unknown fault type %S"
                          (index + 2) other)))
            rest;
          Ok
            (make ~name ~seed ~crashes:(List.rev !crashes)
               ~reconfig_failures:(List.rev !failures) ())
        end
      with
      | Json.Parse_error message -> Error message
      | Invalid message -> Error message)

let load ~path =
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error message -> Error message
  | text -> parse text

let pp_describe ppf plan =
  Format.fprintf ppf "fault plan %s (seed %d)@." plan.name plan.seed;
  Format.fprintf ppf "  crash windows: %d (%d offline location-rounds)@."
    (crash_count plan)
    (offline_location_rounds plan);
  List.iter
    (fun { location; from_round; until_round } ->
      Format.fprintf ppf "    location %d offline rounds [%d, %d)@." location
        from_round until_round)
    plan.crashes;
  Format.fprintf ppf "  reconfig failures: %d@." (reconfig_failure_count plan);
  List.iter
    (fun { rf_round; rf_location } ->
      Format.fprintf ppf "    round %d location %d@." rf_round rf_location)
    plan.reconfig_failures

(* ---- compiled runtime form ---- *)

type compiled = {
  crash_at : int list array; (* round -> locations crashing (ascending) *)
  repair_at : int list array; (* round -> locations repairing (ascending) *)
  fails_at : int list array; (* round -> locations whose Configure fails *)
  horizon : int;
}

let no_faults = []

let compile plan ~n ~horizon =
  if n < 1 then invalid_arg "Fault.compile: n must be >= 1";
  if horizon < 0 then invalid_arg "Fault.compile: negative horizon";
  let crash_at = Array.make horizon no_faults in
  let repair_at = Array.make horizon no_faults in
  let fails_at = Array.make horizon no_faults in
  let push table round location =
    (* Entries arrive sorted ascending per round key, so cons + final
       reverse keeps each round's list ascending. *)
    if round >= 0 && round < horizon then
      table.(round) <- location :: table.(round)
  in
  List.iter
    (fun { location; from_round; until_round } ->
      if location >= n then
        invalid_arg
          (Printf.sprintf
             "Fault.compile: crash window at location %d, but n = %d" location
             n);
      (* Clip to the run's horizon; a window entirely past it is inert. *)
      if from_round < horizon then begin
        push crash_at from_round location;
        if until_round < horizon then push repair_at until_round location
      end)
    plan.crashes;
  List.iter
    (fun { rf_round; rf_location } ->
      if rf_location >= n then
        invalid_arg
          (Printf.sprintf
             "Fault.compile: reconfig failure at location %d, but n = %d"
             rf_location n);
      push fails_at rf_round rf_location)
    plan.reconfig_failures;
  (* The plan is normalized by (location, round); re-sort each per-round
     bucket by location so event emission order is canonical. *)
  let ascending table =
    Array.iteri (fun i list -> table.(i) <- List.sort Int.compare list) table
  in
  ascending crash_at;
  ascending repair_at;
  ascending fails_at;
  { crash_at; repair_at; fails_at; horizon }

let in_horizon compiled round = round >= 0 && round < compiled.horizon

let crashes_at compiled ~round =
  if in_horizon compiled round then compiled.crash_at.(round) else []

let repairs_at compiled ~round =
  if in_horizon compiled round then compiled.repair_at.(round) else []

let reconfig_fails compiled ~round ~location =
  in_horizon compiled round
  && List.mem location compiled.fails_at.(round)
