module Event_sink = Rrs_sim.Event_sink
module Ledger = Rrs_sim.Ledger
module Probe = Rrs_obs.Probe

type t = {
  header : Event_sink.header;
  reconfig_count : int; (* includes failed reconfigurations: they paid *)
  failed_reconfig_count : int;
  crash_count : int;
  repair_count : int;
  drop_count : int;
  exec_count : int;
  rounds_seen : int;
  events_seen : int;
  exec_slack : Probe.hist_snapshot;
  drop_latency : Probe.hist_snapshot;
  round_reconfigs : Probe.hist_snapshot;
  queue_depth : Probe.hist_snapshot;
  offline_locations : Probe.hist_snapshot;
  summary : Event_sink.summary;
}

let of_channel channel =
  let registry = Probe.create_registry () in
  let exec_slack = Probe.histogram registry "exec_slack" in
  let drop_latency = Probe.histogram registry "drop_latency" in
  let round_reconfigs = Probe.histogram registry "round_reconfigs" in
  let queue_depth = Probe.histogram registry "queue_depth" in
  let offline_locations = Probe.histogram registry "offline_locations" in
  let header = ref None in
  let summary = ref None in
  let reconfigs = ref 0 and drops = ref 0 and execs = ref 0 in
  let failed = ref 0 and crashes = ref 0 and repairs = ref 0 in
  let rounds = ref 0 and events = ref 0 in
  let offline = ref 0 in
  let restored = ref false in
  let error = ref None in
  let lineno = ref 0 in
  let fail message =
    if !error = None then
      error := Some (Printf.sprintf "line %d: %s" !lineno message)
  in
  (try
     while !error = None do
       let line = input_line channel in
       incr lineno;
       if String.trim line <> "" then
         if !summary <> None then fail "content after summary line"
         else
           match Event_sink.parse_line line with
           | Error message -> fail message
           | Ok parsed -> (
               match (parsed, !header) with
               | Event_sink.Header h, None -> header := Some h
               | Event_sink.Header _, Some _ -> fail "duplicate header"
               | _, None -> fail "first line must be the schema header"
               | Event_sink.Event event, Some h ->
                   incr events;
                   (match event with
                   | Event_sink.Reconfig _ -> incr reconfigs
                   | Event_sink.Drop { color; count; _ } ->
                       drops := !drops + count;
                       if color < 0 || color >= Array.length h.hdr_bounds then
                         fail (Printf.sprintf "drop of unknown color %d" color)
                       else
                         Probe.observe_n drop_latency h.hdr_bounds.(color)
                           ~n:count
                   | Event_sink.Execute { round; deadline; _ } ->
                       incr execs;
                       Probe.observe exec_slack (deadline - round)
                   | Event_sink.Reconfig_failed _ ->
                       (* Paid Delta without taking effect: counts toward
                          reconfigs so cost stays delta*reconfigs+drops. *)
                       incr reconfigs;
                       incr failed
                   | Event_sink.Crash _ ->
                       incr crashes;
                       incr offline
                   | Event_sink.Repair _ ->
                       incr repairs;
                       decr offline)
               | Event_sink.Round snap, Some _ ->
                   incr rounds;
                   Probe.observe round_reconfigs snap.snap_reconfigs;
                   Probe.observe queue_depth snap.snap_pending;
                   (* The stream does not say which locations were
                      offline at a checkpoint, so a restored trace
                      leaves this distribution empty. *)
                   if not !restored then
                     Probe.observe offline_locations !offline
               | Event_sink.Restored r, Some _ ->
                   (* A checkpoint-seeded trace: the stream carries only
                      events from res_round on, so seed the folded totals
                      with what accumulated before it. Legal once, before
                      any event. *)
                   if !restored then fail "duplicate restored line"
                   else if !events > 0 || !rounds > 0 then
                     fail "restored line after events"
                   else begin
                     restored := true;
                     reconfigs := r.res_reconfigs;
                     failed := r.res_failed;
                     drops := r.res_drops;
                     execs := r.res_execs
                   end
               | Event_sink.Aborted { ab_round; ab_reason }, Some _ ->
                   fail
                     (Printf.sprintf "run aborted at round %d: %s" ab_round
                        ab_reason)
               | Event_sink.Summary s, Some _ -> summary := Some s)
     done
   with End_of_file -> ());
  match (!error, !header, !summary) with
  | Some message, _, _ -> Error message
  | None, None, _ -> Error "empty file (no schema header)"
  | None, Some _, None ->
      Error "missing summary line (truncated or interrupted run?)"
  | None, Some header, Some sum ->
      if
        sum.sum_reconfig_count <> !reconfigs
        || sum.sum_drop_count <> !drops
        || sum.sum_exec_count <> !execs
      then
        Error
          (Printf.sprintf
             "summary (reconfigs=%d drops=%d execs=%d) does not match folded \
              events (reconfigs=%d drops=%d execs=%d): truncated file?"
             sum.sum_reconfig_count sum.sum_drop_count sum.sum_exec_count
             !reconfigs !drops !execs)
      else if sum.sum_failed_reconfig_count <> !failed then
        Error
          (Printf.sprintf
             "summary failed_reconfig_count=%d does not match folded events \
              (%d)"
             sum.sum_failed_reconfig_count !failed)
      else if sum.sum_cost <> (header.hdr_delta * !reconfigs) + !drops then
        Error
          (Printf.sprintf "summary cost %d does not equal delta*reconfigs+drops=%d"
             sum.sum_cost
             ((header.hdr_delta * !reconfigs) + !drops))
      else
        Ok
          {
            header;
            reconfig_count = !reconfigs;
            failed_reconfig_count = !failed;
            crash_count = !crashes;
            repair_count = !repairs;
            drop_count = !drops;
            exec_count = !execs;
            rounds_seen = !rounds;
            events_seen = !events;
            exec_slack = Probe.snapshot_histogram exec_slack;
            drop_latency = Probe.snapshot_histogram drop_latency;
            round_reconfigs = Probe.snapshot_histogram round_reconfigs;
            queue_depth = Probe.snapshot_histogram queue_depth;
            offline_locations = Probe.snapshot_histogram offline_locations;
            summary = sum;
          }

let of_path path =
  match open_in path with
  | exception Sys_error message -> Error message
  | channel ->
      Fun.protect
        ~finally:(fun () -> close_in channel)
        (fun () -> of_channel channel)

let total_cost t = (t.header.hdr_delta * t.reconfig_count) + t.drop_count

let summary_string t =
  Format.asprintf "%a" (fun ppf () ->
      Ledger.pp_summary_counts ~failed:t.failed_reconfig_count ppf
        ~delta:t.header.hdr_delta ~reconfigs:t.reconfig_count
        ~drops:t.drop_count ~execs:t.exec_count)
    ()

let tables t =
  [
    Render.percentile_table ~title:"job trajectory (per event)"
      [ t.exec_slack; t.drop_latency ];
    Render.percentile_table ~title:"round trajectory (per round)"
      [ t.round_reconfigs; t.queue_depth; t.offline_locations ];
  ]
