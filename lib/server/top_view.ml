(* Rendering for [rrs top]. See top_view.mli. *)

module Json = Rrs_sim.Event_sink.Json

type sample = { at : float; fields : (string * Json.value) list }

let field s name = Json.opt_int_field s.fields name ~default:0

(* Counters live in the server process: a restart resets every total to
   zero, so a monotone counter moving backwards between two polls means
   the polls straddle different server lives. [uptime_s] going backwards
   is the direct signal; [requests_total] shrinking catches a restart
   that outlived the previous sample's uptime. *)
let restarted ~previous sample =
  field sample "uptime_s" < field previous "uptime_s"
  || field sample "requests_total" < field previous "requests_total"

let rate ~previous sample name =
  match previous with
  | Some prev when sample.at > prev.at && not (restarted ~previous:prev sample)
    ->
      (* Per-counter clamp: even within one server life a metrics
         read is not a snapshot, so tiny negative deltas are possible;
         a rate is never negative. *)
      let delta = max 0 (field sample name - field prev name) in
      Printf.sprintf "%7.1f/s" (float_of_int delta /. (sample.at -. prev.at))
  | _ -> "      -/s"

let render ~previous sample ~slow =
  let g = field sample in
  let buf = Buffer.create 2048 in
  let line format =
    Printf.ksprintf
      (fun s ->
        Buffer.add_string buf s;
        Buffer.add_char buf '\n')
      format
  in
  let rate = rate ~previous sample in
  let restart_note =
    match previous with
    | Some prev when restarted ~previous:prev sample -> "  [server restarted]"
    | _ -> ""
  in
  line "rrs top  uptime %ds  sessions %d (rounds %d, shed %d)%s"
    (g "uptime_s") (g "sessions_open") (g "sessions_rounds")
    (g "sessions_shed_jobs") restart_note;
  line "requests %d %s  errors %d  malformed %d  slow %d (>= %dus)"
    (g "requests_total") (rate "requests_total") (g "errors_total")
    (g "malformed_total") (g "slow_total") (g "slow_threshold_us");
  line "rounds   %d %s  shed jobs %d  bytes in p50 %d  out p50 %d"
    (g "rounds_total") (rate "rounds_total") (g "shed_jobs_total")
    (g "bytes_in_p50") (g "bytes_out_p50");
  line "step p50 %dus p99 %dus" (g "step_us_p50") (g "step_us_p99");
  (* The admission gauges exist only when the server runs a gate. *)
  if List.mem_assoc "admission_supply_mjpr" sample.fields then
    line
      "admission supply %d mj/r  demand %d  headroom %d  sessions %d  \
       rejected %d  policed %d jobs"
      (g "admission_supply_mjpr")
      (g "admission_demand_mjpr")
      (g "admission_headroom_mjpr")
      (g "admission_sessions")
      (g "admission_rejected_total")
      (g "admission_policed_jobs");
  line "%-10s %10s %8s %8s %8s %8s" "type" "count" "p50us" "p90us" "p99us"
    "maxus";
  Array.iter
    (fun kind ->
      let n = g ("requests_" ^ kind) in
      if n > 0 then
        let h key = g ("req_latency_us_" ^ kind ^ "_" ^ key) in
        line "%-10s %10d %8d %8d %8d %8d" kind n (h "p50") (h "p90") (h "p99")
          (h "max"))
    Metrics.kinds;
  if slow <> [] then begin
    line "slow requests (newest first):";
    List.iter
      (fun entry ->
        match Json.parse_fields entry with
        | fields ->
            let f name = Json.opt_int_field fields name ~default:0 in
            line
              "  +%6dms %-8s %-12s wire%d %6dus (handle %d write %d) %dB>%dB%s"
              (f "at_us" / 1000)
              (try Json.str_field fields "type" with Json.Parse_error _ -> "?")
              (try Json.str_field fields "session"
               with Json.Parse_error _ -> "")
              (f "wire") (f "latency_us") (f "handle_us") (f "write_us")
              (f "bytes_in") (f "bytes_out")
              (if f "error" = 1 then " ERROR" else "")
        | exception Json.Parse_error _ -> line "  %s" entry)
      slow
  end;
  Buffer.contents buf
