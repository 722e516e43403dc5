(* E18 — sustained serving throughput (closed-loop load harness).

   Starts an in-process rrs session server on a Unix socket, then for
   each session count S and each wire framing (rrs-wire/1 JSON,
   rrs-wire/2 binary) spawns S client domains. Each client opens its
   own session and drives it closed-loop over the real socket: feed one
   round's arrivals, step one round, repeat — so every round costs two
   request/reply round trips and the measured figure is end-to-end wire
   throughput, not engine throughput. The /1 and /2 rows for the same S
   run the same seeds over the same server, so the framings are compared
   side by side: frames moved, bytes per frame, p50/p99 frame latency.

   Reported per (S, wire): aggregate rounds/sec, jobs executed/sec,
   p50/p99 per-frame latency (connect-to-reply excluded; measured per
   call over all clients), the server's own per-frame-type request
   percentiles (fetched over the 'metrics' wire request after the
   window; each row runs against a fresh server so its metrics cover
   exactly that window) and mean wire bytes per frame. The same rows
   are re-emitted as experiment E20, comparing server-side against
   client-observed percentiles — the gap is client-side stack + wire.
   After the measured window every session's server-side stats are
   checked for conservation:

     fed = accepted + shed
     accepted = execs + drops + pool pending + buffered

   and any violation or server crash fails the bench loudly. *)

module Server = Rrs_server.Server
module Client = Rrs_server.Client
module Wire = Rrs_server.Wire
module Clock = Rrs_obs.Clock
module Json = Rrs_sim.Event_sink.Json

let policy = "dlru-edf"
let bounds = [| 2; 3; 4; 6; 8; 12; 16; 24 |]
let colors = Array.length bounds
let delta = 4
let n = 8

type client_result = {
  rounds : int;
  latencies_us : int array; (* one per frame round trip, unsorted *)
  bytes : int; (* wire bytes moved, both directions *)
  frames : int; (* frames moved, both directions *)
  stats : Wire.frame; (* the final Stats_ok *)
}

let fail format = Printf.ksprintf failwith format

(* One closed-loop client: open, (feed; step) x rounds, stats, close. *)
let drive address ~wire ~session ~seed ~rounds =
  let client = Client.connect address in
  (* The hello exchange is counted in the byte/frame totals: it is part
     of what the framing costs. *)
  (match Client.negotiate client ~wire with
  | Ok () -> ()
  | Error message -> fail "%s: negotiate /%d: %s" session wire message);
  let random = Random.State.make [| 0xE18; seed |] in
  let latencies = Array.make ((2 * rounds) + 8) 0 in
  let round_trips = ref 1 (* the negotiation hello *) in
  let frames = ref 0 in
  let call frame =
    let t0 = Clock.now_ns () in
    let reply = Client.call client frame in
    let dt_us =
      Int64.to_int (Int64.div (Int64.sub (Clock.now_ns ()) t0) 1000L)
    in
    if !frames < Array.length latencies then begin
      latencies.(!frames) <- dt_us;
      incr frames
    end;
    incr round_trips;
    match reply with
    | Ok (Wire.Error_frame { message }) -> fail "%s: server error: %s" session message
    | Ok frame -> frame
    | Error message -> fail "%s: %s" session message
  in
  (match
     call
       (Wire.Open
          { session; policy; delta; bounds; n; speed = 1; horizon = 0;
            queue_limit = 0; decl = None })
   with
  | Wire.Opened _ -> ()
  | _ -> fail "%s: unexpected reply to open" session);
  for _ = 1 to rounds do
    (* ~n jobs per round across random colors: enough load to keep every
       location busy without unbounded backlog. *)
    let counts = Array.make colors 0 in
    for _ = 1 to n do
      let c = Random.State.int random colors in
      counts.(c) <- counts.(c) + 1
    done;
    let colors_arr =
      Array.of_seq
        (Seq.filter (fun c -> counts.(c) > 0)
           (Seq.init colors (fun c -> c)))
    in
    let counts_arr = Array.map (fun c -> counts.(c)) colors_arr in
    (match call (Wire.Feed { session; colors = colors_arr; counts = counts_arr; decl = None }) with
    | Wire.Fed _ | Wire.Shed _ -> ()
    | _ -> fail "%s: unexpected reply to feed" session);
    match call (Wire.Step { session; rounds = 1 }) with
    | Wire.Stepped _ -> ()
    | _ -> fail "%s: unexpected reply to step" session
  done;
  let stats = call (Wire.Stats { session }) in
  (match call (Wire.Close { session }) with
  | Wire.Closed _ -> ()
  | _ -> fail "%s: unexpected reply to close" session);
  let bytes = Client.bytes_sent client + Client.bytes_received client in
  Client.close client;
  {
    rounds;
    latencies_us = Array.sub latencies 0 !frames;
    bytes;
    frames = 2 * !round_trips;
    stats;
  }

let check_conservation result =
  match result.stats with
  | Wire.Stats_ok
      { session; pending; buffered; fed; accepted; shed; execs; drops; _ } ->
      if fed <> accepted + shed then
        fail "%s: conservation violated: fed %d <> accepted %d + shed %d"
          session fed accepted shed;
      if accepted <> execs + drops + pending + buffered then
        fail
          "%s: conservation violated: accepted %d <> execs %d + drops %d + \
           pending %d + buffered %d"
          session accepted execs drops pending buffered
  | _ -> fail "stats reply was not stats_ok"

let percentile_us sorted p =
  if Array.length sorted = 0 then 0
  else
    let index =
      int_of_float (ceil (p *. float_of_int (Array.length sorted))) - 1
    in
    sorted.(max 0 (min index (Array.length sorted - 1)))

(* The merged server-side metrics document, fetched over the wire after
   a measured window. *)
let fetch_server_metrics address =
  let client = Client.connect address in
  let doc =
    match Client.call client (Wire.Metrics { slow = 0 }) with
    | Ok (Wire.Metrics_ok { doc; _ }) -> doc
    | Ok (Wire.Error_frame { message }) -> fail "metrics: %s" message
    | Ok _ -> fail "metrics: unexpected reply"
    | Error message -> fail "metrics: %s" message
  in
  Client.close client;
  Json.parse_fields doc

(* One row's comparison material, kept for the E20 re-emission. *)
type row_summary = {
  w_sessions : int;
  w_wire : int;
  w_p50 : int; (* client-observed, µs *)
  w_p99 : int;
  w_srv : (string * int) list; (* srv_* extras, µs *)
  w_cost : int;
  w_reconfigs : int;
  w_drops : int;
  w_execs : int;
  w_wall : float;
}

let run ?json ?(session_counts = [ 1; 2; 4; 8 ]) ?(rounds = 400) () =
  let dir = Filename.temp_file "rrs-serve-bench" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let address = Server.Unix_socket (Filename.concat dir "sock") in
  let table =
    Rrs_stats.Table.create
      ~title:
        (Printf.sprintf
           "E18 serving throughput (closed loop, %d rounds/session, policy %s)"
           rounds policy)
      ~columns:
        [ "sessions"; "wire"; "rounds/s"; "execs/s"; "p50 us"; "p99 us";
          "srv feed p99"; "srv step p99"; "B/frame"; "shed" ]
  in
  let summaries = ref [] in
  let bench =
    Option.map
      (fun path -> (Rrs_stats.Bench_io.create ~tag:(Rrs_stats.Bench_io.tag_of_path path), path))
      json
  in
  Option.iter
    (fun (b, _) ->
      Rrs_stats.Bench_io.start_experiment b ~id:"E18"
        ~claim:
          "The rrs session server sustains closed-loop load from concurrent \
           sessions with bounded frame latency and exact job conservation; \
           the negotiated rrs-wire/2 binary framing moves fewer bytes per \
           frame than rrs-wire/1 at equal or better latency.")
    bench;
  let ok = ref true in
  (try
     List.iter
       (fun sessions ->
         List.iter
           (fun wire ->
             (* A fresh server per row: its metrics plane then covers
                exactly this measured window, so the server-side
                percentiles are comparable with the client-observed
                ones from the same row. *)
             let server =
               Server.start
                 { (Server.default_config address) with
                   queue_limit = 0 }
             in
             Fun.protect
               ~finally:(fun () -> ignore (Server.stop ~drain:false server))
               (fun () ->
             let t0 = Clock.now_s () in
             let domains =
               List.init sessions (fun i ->
                   Domain.spawn (fun () ->
                       drive address ~wire
                         ~session:
                           (Printf.sprintf "bench-w%d-%d-%d" wire sessions i)
                         ~seed:((sessions * 1000) + i) ~rounds))
             in
             let results = List.map Domain.join domains in
             let wall_s = Clock.elapsed_s t0 in
             let server_metrics = fetch_server_metrics address in
             let srv name =
               Json.opt_int_field server_metrics name ~default:0
             in
             List.iter check_conservation results;
             let total_rounds =
               List.fold_left (fun acc r -> acc + r.rounds) 0 results
             in
             let total_bytes =
               List.fold_left (fun acc r -> acc + r.bytes) 0 results
             in
             let total_frames =
               List.fold_left (fun acc r -> acc + r.frames) 0 results
             in
             let latencies =
               Array.concat (List.map (fun r -> r.latencies_us) results)
             in
             Array.sort compare latencies;
             let totals =
               List.fold_left
                 (fun (execs, drops, reconfigs, shed, cost) r ->
                   match r.stats with
                   | Wire.Stats_ok s ->
                       ( execs + s.execs, drops + s.drops,
                         reconfigs + s.reconfigs, shed + s.shed, cost + s.cost )
                   | _ -> (execs, drops, reconfigs, shed, cost))
                 (0, 0, 0, 0, 0) results
             in
             let execs, drops, reconfigs, shed, cost = totals in
             let rounds_per_s = float_of_int total_rounds /. wall_s in
             let execs_per_s = float_of_int execs /. wall_s in
             let p50 = percentile_us latencies 0.50 in
             let p99 = percentile_us latencies 0.99 in
             let bytes_per_frame =
               if total_frames = 0 then 0 else total_bytes / total_frames
             in
             (* Server-side per-frame-type percentiles (handler + reply
                write; the blocking read is excluded). *)
             let srv_extras =
               [
                 ("srv_feed_p50_us", srv "req_latency_us_feed_p50");
                 ("srv_feed_p99_us", srv "req_latency_us_feed_p99");
                 ("srv_step_p50_us", srv "req_latency_us_step_p50");
                 ("srv_step_p99_us", srv "req_latency_us_step_p99");
                 ("srv_lock_wait_p99_us", srv "lock_wait_us_p99");
                 ("srv_requests_total", srv "requests_total");
               ]
             in
             Rrs_stats.Table.add_row table
               [
                 Rrs_stats.Table.cell_int sessions;
                 Printf.sprintf "/%d" wire;
                 Rrs_stats.Table.cell_float ~decimals:0 rounds_per_s;
                 Rrs_stats.Table.cell_float ~decimals:0 execs_per_s;
                 Rrs_stats.Table.cell_int p50;
                 Rrs_stats.Table.cell_int p99;
                 Rrs_stats.Table.cell_int (srv "req_latency_us_feed_p99");
                 Rrs_stats.Table.cell_int (srv "req_latency_us_step_p99");
                 Rrs_stats.Table.cell_int bytes_per_frame;
                 Rrs_stats.Table.cell_int shed;
               ];
             summaries :=
               { w_sessions = sessions; w_wire = wire; w_p50 = p50;
                 w_p99 = p99; w_srv = srv_extras; w_cost = cost;
                 w_reconfigs = reconfigs; w_drops = drops; w_execs = execs;
                 w_wall = wall_s }
               :: !summaries;
             Option.iter
               (fun (b, _) ->
                 Rrs_stats.Bench_io.record b ~policy
                   ~workload:
                     (Printf.sprintf "serve-closed-loop-x%d-wire%d" sessions
                        wire)
                   ~n ~delta ~cost ~reconfig_count:reconfigs ~drop_count:drops
                   ~exec_count:execs ~wall_s
                   ~extras:
                     ([
                        ("sessions", sessions);
                        ("wire", wire);
                        ("rounds_total", total_rounds);
                        ("rounds_per_s", int_of_float rounds_per_s);
                        ("execs_per_s", int_of_float execs_per_s);
                        ("frames_total", total_frames);
                        ("bytes_total", total_bytes);
                        ("bytes_per_frame", bytes_per_frame);
                        ("p50_us", p50);
                        ("p99_us", p99);
                        ("shed_jobs", shed);
                      ]
                     @ srv_extras)
                   ())
               bench))
           [ 1; 2 ])
       session_counts
   with e ->
     ok := false;
     Format.eprintf "serve bench failed: %s@." (Printexc.to_string e));
  Rrs_stats.Table.print table;
  (* E20 — the same windows, re-cut as a server-side vs client-observed
     latency comparison. *)
  Option.iter
    (fun (b, _) ->
      Rrs_stats.Bench_io.start_experiment b ~id:"E20"
        ~claim:
          "Server-side request latency percentiles (handler + reply write, \
           traced per frame type on the server's event loop) track the \
           client-observed round-trip percentiles from the same closed-loop \
           window under both framings; the residual gap is client stack + \
           wire transport.";
      List.iter
        (fun w ->
          Rrs_stats.Bench_io.record b ~policy
            ~workload:
              (Printf.sprintf "serve-latency-x%d-wire%d" w.w_sessions w.w_wire)
            ~n ~delta ~cost:w.w_cost ~reconfig_count:w.w_reconfigs
            ~drop_count:w.w_drops ~exec_count:w.w_execs ~wall_s:w.w_wall
            ~extras:
              ([
                 ("sessions", w.w_sessions);
                 ("wire", w.w_wire);
                 ("client_p50_us", w.w_p50);
                 ("client_p99_us", w.w_p99);
               ]
              @ w.w_srv)
            ())
        (List.rev !summaries))
    bench;
  Option.iter
    (fun (b, path) ->
      Rrs_stats.Bench_io.write b ~path;
      Format.eprintf "wrote %s@." path)
    bench;
  if not !ok then exit 1

(* ---- E18 churn mode: the FD_SETSIZE cliff under live load ----

   Holds thousands of concurrent connections open against one server —
   all multiplexed by the poll-based event loop, most of them on fds
   far above the old select(2) FD_SETSIZE=1024 cliff — drives
   pipelined request sweeps across the whole population, and churns a
   slice of it closed/reopened between sweeps. Reported per framing:
   sustained connection count, calls/s, client p50/p99, connections
   churned, and the /proc/self/fd table size at matched full-occupancy
   points. Both connection ends live in this process, so fd_min <>
   fd_max is a descriptor leak in the connection core; any frame or
   transport error fails the bench loudly. *)

module Poll = Rrs_server.Poll

let churn_connect address ~wire =
  let client = Client.connect address in
  (if wire = 2 then
     match Client.negotiate client ~wire with
     | Ok () -> ()
     | Error message -> fail "churn connect: negotiate /%d: %s" wire message);
  client

let run_churn ?json ?(conns = 2048) ?(sweeps = 4) () =
  let want_fds = (2 * conns) + 512 in
  let limit = Poll.raise_fd_limit want_fds in
  let conns =
    if limit >= want_fds then conns
    else begin
      (* No silent caps: an fd-starved sandbox shrinks the population
         and says so, instead of pretending it ran at full size. *)
      let scaled = max 256 ((limit - 512) / 2) in
      Format.eprintf
        "churn: fd limit %d caps the population at %d connections (wanted %d)@."
        limit scaled conns;
      scaled
    end
  in
  let have_proc = Sys.file_exists "/proc/self/fd" in
  let fd_table () =
    if have_proc then Array.length (Sys.readdir "/proc/self/fd") else 0
  in
  let dir = Filename.temp_file "rrs-churn-bench" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let address = Server.Unix_socket (Filename.concat dir "sock") in
  let table =
    Rrs_stats.Table.create
      ~title:
        (Printf.sprintf
           "E18 connection churn (%d concurrent connections, %d sweeps)" conns
           sweeps)
      ~columns:
        [ "conns"; "wire"; "calls/s"; "p50 us"; "p99 us"; "churned";
          "fd min"; "fd max" ]
  in
  let bench =
    Option.map
      (fun path -> (Rrs_stats.Bench_io.create ~tag:(Rrs_stats.Bench_io.tag_of_path path), path))
      json
  in
  Option.iter
    (fun (b, _) ->
      Rrs_stats.Bench_io.start_experiment b ~id:"E18"
        ~claim:
          "The poll-based connection core sustains thousands of concurrent \
           sockets — far past the select(2) FD_SETSIZE cliff — through \
           open/close churn with zero frame errors and a byte-flat fd \
           table, under both wire framings.")
    bench;
  let ok = ref true in
  (try
     List.iter
       (fun wire ->
         let server =
           Server.start
             { (Server.default_config address) with
               queue_limit = 0 }
         in
         Fun.protect
           ~finally:(fun () -> ignore (Server.stop ~drain:false server))
           (fun () ->
             let control = churn_connect address ~wire in
             (match
                Client.call control
                  (Wire.Open
                     { session = "churn"; policy; delta; bounds; n; speed = 1;
                       horizon = 0; queue_limit = 0; decl = None })
              with
             | Ok (Wire.Opened _) -> ()
             | Ok frame -> fail "churn open: %s" (Wire.encode frame)
             | Error message -> fail "churn open: %s" message);
             let population =
               Array.init conns (fun _ -> churn_connect address ~wire)
             in
             let latencies =
               Array.make ((sweeps * conns) + (sweeps * (conns / 8)) + 8) 0
             in
             let calls = ref 0 in
             let stats_call client =
               let t0 = Clock.now_ns () in
               match Client.call client (Wire.Stats { session = "churn" }) with
               | Ok (Wire.Stats_ok _) ->
                   if !calls < Array.length latencies then begin
                     latencies.(!calls) <-
                       Int64.to_int
                         (Int64.div (Int64.sub (Clock.now_ns ()) t0) 1000L);
                     incr calls
                   end
               | Ok frame -> fail "frame error under churn: %s" (Wire.encode frame)
               | Error message -> fail "transport error under churn: %s" message
             in
             (* Ramp sweep: one call on every connection while all of
                them stay open, then pin the full-occupancy fd count. *)
             let t0 = Clock.now_s () in
             Array.iter stats_call population;
             let at_full = fd_table () in
             let fd_min = ref at_full and fd_max = ref at_full in
             let settle () =
               if have_proc then begin
                 (* The event loop closes its half of a churned
                    connection asynchronously; wait (bounded) for the
                    table to return to full occupancy before sampling. *)
                 let deadline = Unix.gettimeofday () +. 5. in
                 let rec wait () =
                   if fd_table () = at_full then ()
                   else if Unix.gettimeofday () >= deadline then ()
                   else begin
                     Unix.sleepf 0.01;
                     wait ()
                   end
                 in
                 wait ();
                 let sample = fd_table () in
                 fd_min := min !fd_min sample;
                 fd_max := max !fd_max sample
               end
             in
             let churn_per_sweep = conns / 8 in
             let churned = ref 0 in
             (* Pipelined sweeps: send a whole batch before reading any
                reply, so the loop sees bursts of concurrently-readable
                fds, not one lonely socket at a time. *)
             let batch = 64 in
             let send_t0 = Array.make batch 0L in
             for sweep = 1 to sweeps do
               let i = ref 0 in
               while !i < conns do
                 let count = min batch (conns - !i) in
                 for k = 0 to count - 1 do
                   send_t0.(k) <- Clock.now_ns ();
                   Client.send population.(!i + k) (Wire.Stats { session = "churn" })
                 done;
                 for k = 0 to count - 1 do
                   match Client.read_reply population.(!i + k) with
                   | Ok (Wire.Stats_ok _) ->
                       if !calls < Array.length latencies then begin
                         latencies.(!calls) <-
                           Int64.to_int
                             (Int64.div
                                (Int64.sub (Clock.now_ns ()) send_t0.(k))
                                1000L);
                         incr calls
                       end
                   | Ok frame ->
                       fail "frame error under churn: %s" (Wire.encode frame)
                   | Error message ->
                       fail "transport error under churn: %s" message
                 done;
                 i := !i + count
               done;
               for k = 0 to churn_per_sweep - 1 do
                 let j = (((sweep - 1) * churn_per_sweep) + k) mod conns in
                 Client.close population.(j);
                 population.(j) <- churn_connect address ~wire;
                 stats_call population.(j);
                 incr churned
               done;
               settle ()
             done;
             let wall_s = Clock.elapsed_s t0 in
             Array.iter Client.close population;
             Client.close control;
             if have_proc && !fd_min <> !fd_max then
               fail "fd table drifted under churn: %d .. %d (full ramp %d)"
                 !fd_min !fd_max at_full;
             let sorted = Array.sub latencies 0 !calls in
             Array.sort compare sorted;
             let p50 = percentile_us sorted 0.50 in
             let p99 = percentile_us sorted 0.99 in
             let calls_per_s = float_of_int !calls /. wall_s in
             Rrs_stats.Table.add_row table
               [
                 Rrs_stats.Table.cell_int conns;
                 Printf.sprintf "/%d" wire;
                 Rrs_stats.Table.cell_float ~decimals:0 calls_per_s;
                 Rrs_stats.Table.cell_int p50;
                 Rrs_stats.Table.cell_int p99;
                 Rrs_stats.Table.cell_int !churned;
                 Rrs_stats.Table.cell_int !fd_min;
                 Rrs_stats.Table.cell_int !fd_max;
               ];
             Option.iter
               (fun (b, _) ->
                 Rrs_stats.Bench_io.record b ~policy
                   ~workload:(Printf.sprintf "serve-churn-x%d-wire%d" conns wire)
                   ~n ~delta ~cost:0 ~reconfig_count:0 ~drop_count:0
                   ~exec_count:0 ~wall_s
                   ~extras:
                     [
                       ("conns", conns);
                       ("wire", wire);
                       ("sweeps", sweeps);
                       ("calls_total", !calls);
                       ("calls_per_s", int_of_float calls_per_s);
                       ("p50_us", p50);
                       ("p99_us", p99);
                       ("churned", !churned);
                       ("frame_errors", 0);
                       ("fd_full_ramp", at_full);
                       ("fd_min", !fd_min);
                       ("fd_max", !fd_max);
                       ("fd_limit", limit);
                     ]
                   ())
               bench))
       [ 1; 2 ]
   with e ->
     ok := false;
     Format.eprintf "churn bench failed: %s@." (Printexc.to_string e));
  Rrs_stats.Table.print table;
  Option.iter
    (fun (b, path) ->
      Rrs_stats.Bench_io.write b ~path;
      Format.eprintf "wrote %s@." path)
    bench;
  if not !ok then exit 1
