module Clock = Rrs_obs.Clock

let schema_version = "rrs-bench/3"

type run = {
  policy : string;
  workload : string;
  n : int;
  delta : int;
  cost : int;
  reconfig_count : int;
  drop_count : int;
  exec_count : int option;
  wall_s : float option;
  minor_words : float option;
  phases : (string * float * float) list; (* (name, wall_s, minor_words) *)
  extras : (string * int) list; (* extra integer metrics, schema-free *)
}

type experiment = {
  id : string;
  claim : string;
  mutable runs : run list; (* reverse submission order *)
  mutable exp_wall_s : float;
  mutable exp_minor_words : float;
}

type t = {
  tag : string;
  mutable experiments : experiment list; (* reverse order *)
  mutable current : experiment option;
  mutable started_at : float;
  mutable minor0 : float;
}

let tag_of_path path =
  let base = Filename.remove_extension (Filename.basename path) in
  let prefix = "BENCH_" in
  if String.length base > String.length prefix
     && String.sub base 0 (String.length prefix) = prefix
  then String.sub base (String.length prefix) (String.length base - String.length prefix)
  else base

let create ~tag =
  {
    tag;
    experiments = [];
    current = None;
    started_at = Clock.now_s ();
    minor0 = Gc.minor_words ();
  }

let close_current t =
  match t.current with
  | None -> ()
  | Some experiment ->
      experiment.exp_wall_s <- Clock.elapsed_s t.started_at;
      experiment.exp_minor_words <- Gc.minor_words () -. t.minor0;
      t.experiments <- experiment :: t.experiments;
      t.current <- None

let start_experiment t ~id ~claim =
  close_current t;
  t.current <-
    Some
      { id; claim; runs = []; exp_wall_s = 0.0; exp_minor_words = 0.0 };
  t.started_at <- Clock.now_s ();
  t.minor0 <- Gc.minor_words ()

let current_experiment t =
  (match t.current with
  | None -> start_experiment t ~id:"adhoc" ~claim:""
  | Some _ -> ());
  match t.current with None -> assert false | Some experiment -> experiment

let record t ~policy ~workload ~n ~delta ~cost ~reconfig_count ~drop_count
    ?exec_count ?wall_s ?minor_words ?(phases = []) ?(extras = []) () =
  let experiment = current_experiment t in
  experiment.runs <-
    { policy; workload; n; delta; cost; reconfig_count; drop_count;
      exec_count; wall_s; minor_words; phases; extras }
    :: experiment.runs

(* ---- JSON rendering (hand-rolled: the container has no JSON library,
   and the schema is flat enough that escaping + printf suffice) ---- *)

let escape_into buffer s =
  Buffer.add_char buffer '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buffer "\\\""
      | '\\' -> Buffer.add_string buffer "\\\\"
      | '\n' -> Buffer.add_string buffer "\\n"
      | '\r' -> Buffer.add_string buffer "\\r"
      | '\t' -> Buffer.add_string buffer "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buffer (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buffer c)
    s;
  Buffer.add_char buffer '"'

let float_field value =
  if Float.is_finite value then Printf.sprintf "%.6f" value else "0.0"

let render_run buffer run =
  Buffer.add_string buffer "      {\"policy\": ";
  escape_into buffer run.policy;
  Buffer.add_string buffer ", \"workload\": ";
  escape_into buffer run.workload;
  Buffer.add_string buffer
    (Printf.sprintf
       ", \"n\": %d, \"delta\": %d, \"cost\": %d, \"reconfig_count\": %d, \
        \"reconfig_cost\": %d, \"drop_count\": %d"
       run.n run.delta run.cost run.reconfig_count
       (run.delta * run.reconfig_count)
       run.drop_count);
  (match run.exec_count with
  | Some execs -> Buffer.add_string buffer (Printf.sprintf ", \"exec_count\": %d" execs)
  | None -> ());
  (match run.wall_s with
  | Some wall -> Buffer.add_string buffer (", \"wall_s\": " ^ float_field wall)
  | None -> ());
  (match run.minor_words with
  | Some words ->
      Buffer.add_string buffer (", \"minor_words\": " ^ float_field words)
  | None -> ());
  (match run.phases with
  | [] -> ()
  | phases ->
      Buffer.add_string buffer ", \"phases\": {";
      List.iteri
        (fun i (name, wall_s, minor_words) ->
          if i > 0 then Buffer.add_string buffer ", ";
          escape_into buffer name;
          Buffer.add_string buffer
            (Printf.sprintf ": {\"wall_s\": %s, \"minor_words\": %s}"
               (float_field wall_s) (float_field minor_words)))
        phases;
      Buffer.add_char buffer '}');
  (match run.extras with
  | [] -> ()
  | extras ->
      Buffer.add_string buffer ", \"extras\": {";
      List.iteri
        (fun i (name, value) ->
          if i > 0 then Buffer.add_string buffer ", ";
          escape_into buffer name;
          Buffer.add_string buffer (Printf.sprintf ": %d" value))
        extras;
      Buffer.add_char buffer '}');
  Buffer.add_char buffer '}'

let render_experiment buffer experiment =
  Buffer.add_string buffer "    {\"id\": ";
  escape_into buffer experiment.id;
  Buffer.add_string buffer ", \"claim\": ";
  escape_into buffer experiment.claim;
  Buffer.add_string buffer
    (Printf.sprintf ", \"wall_s\": %s, \"minor_words\": %s,\n"
       (float_field experiment.exp_wall_s)
       (float_field experiment.exp_minor_words));
  Buffer.add_string buffer "     \"runs\": [";
  let runs = List.rev experiment.runs in
  List.iteri
    (fun i run ->
      Buffer.add_string buffer (if i = 0 then "\n" else ",\n");
      render_run buffer run)
    runs;
  if runs <> [] then Buffer.add_string buffer "\n    ";
  Buffer.add_string buffer "]}"

let to_string t =
  close_current t;
  let experiments = List.rev t.experiments in
  let buffer = Buffer.create 4096 in
  Buffer.add_string buffer "{\n  \"schema\": ";
  escape_into buffer schema_version;
  Buffer.add_string buffer ",\n  \"tag\": ";
  escape_into buffer t.tag;
  Buffer.add_string buffer ",\n  \"experiments\": [";
  List.iteri
    (fun i experiment ->
      Buffer.add_string buffer (if i = 0 then "\n" else ",\n");
      render_experiment buffer experiment)
    experiments;
  if experiments <> [] then Buffer.add_string buffer "\n  ";
  Buffer.add_string buffer "],\n";
  let total_runs =
    List.fold_left (fun acc e -> acc + List.length e.runs) 0 experiments
  in
  let total_wall =
    List.fold_left (fun acc e -> acc +. e.exp_wall_s) 0.0 experiments
  in
  Buffer.add_string buffer
    (Printf.sprintf
       "  \"totals\": {\"experiments\": %d, \"runs\": %d, \"wall_s\": %s}\n}\n"
       (List.length experiments) total_runs (float_field total_wall));
  Buffer.contents buffer

let write t ~path = Rrs_sim.Atomic_file.write ~path (to_string t)
