(* E18 churn mode: the FD_SETSIZE cliff under live load.

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

module Server = Rrs_server.Server
module Client = Rrs_server.Client
module Wire = Rrs_server.Wire
module Clock = Rrs_obs.Clock
module Poll = Rrs_server.Poll

let policy = "dlru-edf"
let bounds = [| 2; 3; 4; 6; 8; 12; 16; 24 |]
let delta = 4
let n = 8

let fail format = Printf.ksprintf failwith format

let percentile_us sorted p =
  if Array.length sorted = 0 then 0
  else
    let index =
      int_of_float (ceil (p *. float_of_int (Array.length sorted))) - 1
    in
    sorted.(max 0 (min index (Array.length sorted - 1)))

let churn_connect address ~wire =
  let client = Client.connect address in
  (if wire = 2 then
     match Client.negotiate client ~wire with
     | Ok () -> ()
     | Error message -> fail "churn connect: negotiate /%d: %s" wire message);
  client

let run ?json ?(conns = 2048) ?(sweeps = 4) () =
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
