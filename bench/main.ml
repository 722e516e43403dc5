(* Benchmark / experiment harness entry point.

   Prints the experiment tables E1-E17 (one per claim of the paper, plus
   the fault-degradation extension; see DESIGN.md section 4 and
   EXPERIMENTS.md for the index) followed by the E11 bechamel throughput
   microbenches. The serving extensions have one mode each; everything
   else about serving is measured by perfbench/ and the tier-1 tests.

   Usage:
     dune exec bench/main.exe                      # tables + microbenches
     dune exec bench/main.exe -- tables            # only the claim tables
     dune exec bench/main.exe -- micro             # only the microbenches
     dune exec bench/main.exe -- churn             # E18 connection churn
     dune exec bench/main.exe -- failover          # E21 kill -9 recovery
     dune exec bench/main.exe -- admission         # E22 admission gate
     dune exec bench/main.exe -- tables --json F   # tables + BENCH json

   --json FILE serializes the results of the selected mode to FILE using
   the versioned rrs-bench schema (see Rrs_stats.Bench_io); every mode
   but micro accepts it. Diagnostics go to stderr so stdout stays clean
   for redirection. *)

let usage =
  "all | tables | micro | churn | failover | admission [--json FILE]"

let usage_error format =
  Format.kasprintf
    (fun message ->
      Format.eprintf "%s (usage: %s)@." message usage;
      exit 1)
    format

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  (* [shard-child] is the E21 failover bench re-exec'ing itself as a
     killable shard process: no banner, no table — just a session
     server until SIGTERM. *)
  (match args with
  | "shard-child" :: rest -> Failover_bench.shard_child rest
  | _ -> ());
  let rec parse mode json = function
    | [] -> (mode, json)
    | "--json" :: path :: rest -> parse mode (Some path) rest
    | "--json" :: [] -> usage_error "--json requires a file argument"
    | arg :: rest when mode = None -> parse (Some arg) json rest
    | arg :: _ -> usage_error "unexpected argument %S" arg
  in
  let mode, json = parse None None args in
  let mode = Option.value mode ~default:"all" in
  (* Microbench timings have no JSON form: refuse --json rather than
     exit 0 without writing the file. *)
  if mode = "micro" && json <> None then
    usage_error "micro writes no JSON; --json is not accepted";
  Format.printf
    "Reconfigurable Resource Scheduling with Variable Delay Bounds — experiment \
     harness@.";
  (match mode with
  | "tables" -> Experiments.run_all ?json ()
  | "micro" -> Micro.run ()
  | "churn" -> Churn_bench.run ?json ()
  | "failover" -> Failover_bench.run ?json ()
  | "admission" -> Admission_bench.run ?json ()
  | "all" ->
      Experiments.run_all ?json ();
      Micro.run ()
  | other ->
      (* Keep stdout parseable (e.g. under --json wrappers): diagnostics
         belong on stderr. *)
      Format.eprintf "unknown mode %S (expected: %s)@." other usage;
      exit 1);
  Format.printf "@.done.@."
