(* rrsbench — the repository benchmark. One workload per invocation:

     rrsbench.exe --workload tick|durable|sweep --seed N --seconds S
                  --trace 0|1 --rrs PATH [--workdir DIR] [--perturb]

   Prints a human-readable table, then one JSON result line. Correctness
   is gated before any metric is reported: a mismatch prints a result
   with "correct": false and no metrics, and exits 1. See README.md. *)

open Common

let usage () =
  prerr_endline
    "usage: rrsbench.exe --workload tick|durable|sweep --seed N --seconds S \
     --trace 0|1 --rrs PATH [--workdir DIR] [--perturb]";
  exit 2

let parse argv =
  let opts =
    ref
      {
        workload = "";
        seed = default_seed;
        seconds = 10.;
        trace = false;
        rrs = "";
        workdir = ".bench_run";
        perturb = false;
      }
  in
  let rec go = function
    | [] -> ()
    | "--perturb" :: rest ->
        opts := { !opts with perturb = true };
        go rest
    | flag :: value :: rest ->
        (match flag with
        | "--workload" -> opts := { !opts with workload = value }
        | "--seed" -> opts := { !opts with seed = int_of_string value }
        | "--seconds" -> opts := { !opts with seconds = float_of_string value }
        | "--trace" -> opts := { !opts with trace = value = "1" }
        | "--rrs" -> opts := { !opts with rrs = value }
        | "--workdir" -> opts := { !opts with workdir = value }
        | _ -> usage ());
        go rest
    | _ -> usage ()
  in
  (try go (List.tl (Array.to_list argv)) with Failure _ -> usage ());
  !opts

let () =
  if Array.length Sys.argv = 2 && Sys.argv.(1) = "--keep-warm" then
    spin_until_orphaned ();
  let opts = parse Sys.argv in
  if opts.seconds <= 0. then usage ();
  let served shape =
    if opts.rrs = "" || not (Sys.file_exists opts.rrs) then begin
      log "the rrs executable %S does not exist" opts.rrs;
      exit 2
    end;
    Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
    ensure_dir opts.workdir;
    Served.run shape opts
  in
  let run () =
    match opts.workload with
    | "tick" -> served Served.tick
    | "durable" -> served Served.durable
    | "sweep" -> Batch.run opts
    | other ->
        log "unknown workload %S" other;
        exit 2
  in
  (* Also on an early exit, such as a failed write to a closed pipe. *)
  at_exit (fun () ->
      stop_all_children ();
      if opts.workload <> "sweep" then remove_tree opts.workdir);
  match
    let attempted, failed, metrics = run () in
    (attempted, failed, complete ~trace:opts.trace metrics)
  with
  | attempted, failed, metrics ->
      emit ~correct:true ~attempted ~failed metrics;
      exit 0
  | exception Incorrect message ->
      log "INCORRECT: %s" message;
      emit ~correct:false ~attempted:1 ~failed:1 [];
      exit 1
  | exception e ->
      log "error: %s" (Printexc.to_string e);
      exit 2
