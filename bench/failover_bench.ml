(* E21 — crash-failover recovery (sharded serving under kill -9).

   Topology: a real shard set — N child *processes* (this same binary
   re-exec'd in [shard_child] mode, each an rrs session server with
   autosnap on its own snapshot directory) behind an in-process
   consistent-hash router, supervised with restart backoff. S client
   domains drive closed-loop sessions through the router; once every
   session has made [warmup] acknowledged rounds, the harness kill -9s
   the shard process owning at least one session and keeps driving.

   Measured:
     - recovery_ms: kill to the first acknowledged step on an affected
       session (supervisor restart + snapshot restore + router
       re-admission, observed from the client side);
     - lost rounds: per affected session, acknowledged-round high-water
       mark minus the round the restored shard resumed at — bounded by
       the checkpoint interval K (autosnap writes at every checkpoint
       boundary), asserted [<= K];
     - surviving-shard service: sessions on the other shard(s) must see
       zero errors for the whole window, and their p99 is reported
       next to a pre-kill baseline p99;
     - the router must never hang: every reply (success or clean
       error) lands within the client deadline; a single deadline
       expiry fails the bench.

   Any violation exits non-zero, so CI can gate on it. *)

module Server = Rrs_server.Server
module Client = Rrs_server.Client
module Wire = Rrs_server.Wire
module Router = Rrs_server.Router
module Shard = Rrs_server.Shard
module Clock = Rrs_obs.Clock

let policy = "dlru-edf"
let bounds = [| 2; 3; 4; 6; 8; 12; 16; 24 |]
let colors = Array.length bounds
let delta = 4
let n = 8

let fail format = Printf.ksprintf failwith format

(* ---- child mode: one shard process ------------------------------- *)

(* Re-exec'd as [main.exe shard-child --socket S --snap-dir D
   --checkpoint-every K]: a plain session server that the supervisor
   can kill -9 and restart. Runs until SIGTERM (the supervisor's
   graceful stop). *)
let shard_child args =
  let socket = ref "" and snap_dir = ref "" and checkpoint_every = ref 0 in
  let rec parse = function
    | [] -> ()
    | "--socket" :: v :: rest -> socket := v; parse rest
    | "--snap-dir" :: v :: rest -> snap_dir := v; parse rest
    | "--checkpoint-every" :: v :: rest ->
        checkpoint_every := int_of_string v;
        parse rest
    | arg :: _ -> fail "shard-child: unexpected argument %S" arg
  in
  parse args;
  if !socket = "" || !snap_dir = "" then
    fail "shard-child: --socket and --snap-dir are required";
  Rrs_server.Slog.set_level Rrs_server.Slog.Warn;
  let config =
    {
      (Server.default_config (Server.Unix_socket !socket)) with
      snap_dir = Some !snap_dir;
      checkpoint_every = !checkpoint_every;
      autosnap = true;
    }
  in
  ignore (Server.serve config);
  exit 0

(* ---- closed-loop client ------------------------------------------ *)

type outcome = {
  o_at : float; (* wall clock, seconds *)
  o_ok : bool;
  o_round : int; (* acked round for a successful step, else 0 *)
  o_latency_us : int;
  o_deadline : bool; (* the client deadline itself expired *)
}

type client_result = {
  c_session : string;
  c_outcomes : outcome list; (* step outcomes, oldest first *)
  c_errors : int; (* failed feed/step calls *)
  c_stats : Wire.frame option; (* final stats_ok, if reachable *)
}

(* Feed one round's arrivals then step once, [rounds] times, through
   the router. Errors (shard down mid-failover) are recorded and the
   loop keeps going — exactly what a resilient client does. *)
let drive address ~session ~seed ~rounds ~deadline_ms ~acked =
  let client = Client.connect address in
  (match Client.negotiate client ~wire:2 with
  | Ok () -> ()
  | Error message -> fail "%s: negotiate: %s" session message);
  let random = Random.State.make [| 0xE21; seed |] in
  let outcomes = ref [] in
  let errors = ref 0 in
  let call frame =
    let t0 = Clock.now_ns () in
    let reply = Client.call ~deadline_ms client frame in
    let dt_us =
      Int64.to_int (Int64.div (Int64.sub (Clock.now_ns ()) t0) 1000L)
    in
    (reply, dt_us)
  in
  (match
     call
       (Wire.Open
          { session; policy; delta; bounds; n; speed = 1; horizon = 0;
            queue_limit = 0; decl = None })
   with
  | (Ok (Wire.Opened _), _) -> ()
  | (Ok (Wire.Error_frame { message }), _) -> fail "%s: open: %s" session message
  | (Ok _, _) -> fail "%s: unexpected reply to open" session
  | (Error message, _) -> fail "%s: open: %s" session message);
  for _ = 1 to rounds do
    let counts = Array.make colors 0 in
    for _ = 1 to n do
      let c = Random.State.int random colors in
      counts.(c) <- counts.(c) + 1
    done;
    let colors_arr =
      Array.of_seq
        (Seq.filter (fun c -> counts.(c) > 0) (Seq.init colors (fun c -> c)))
    in
    let counts_arr = Array.map (fun c -> counts.(c)) colors_arr in
    (match call (Wire.Feed { session; colors = colors_arr; counts = counts_arr; decl = None })
     with
    | (Ok (Wire.Fed _ | Wire.Shed _), _) -> ()
    | (Ok _, _) | (Error _, _) -> incr errors);
    let now = Unix.gettimeofday () in
    (match call (Wire.Step { session; rounds = 1 }) with
    | (Ok (Wire.Stepped { round; _ }), dt) ->
        Atomic.set acked round;
        outcomes :=
          { o_at = now; o_ok = true; o_round = round; o_latency_us = dt;
            o_deadline = false }
          :: !outcomes
    | (Ok _, dt) ->
        incr errors;
        outcomes :=
          { o_at = now; o_ok = false; o_round = 0; o_latency_us = dt;
            o_deadline = false }
          :: !outcomes;
        (* Back off instead of hot-spinning against a dead shard. *)
        Unix.sleepf 0.01
    | (Error message, dt) ->
        incr errors;
        outcomes :=
          { o_at = now; o_ok = false; o_round = 0; o_latency_us = dt;
            o_deadline =
              (* A client-deadline expiry means something hung past its
                 budget — the one thing the router must never do. *)
              (String.length message >= 8 && String.sub message 0 8 = "deadline");
          }
          :: !outcomes;
        Unix.sleepf 0.01)
  done;
  let stats =
    match call (Wire.Stats { session }) with
    | (Ok (Wire.Stats_ok _ as s), _) -> Some s
    | _ -> None
  in
  Client.close client;
  { c_session = session; c_outcomes = List.rev !outcomes; c_errors = !errors;
    c_stats = stats }

let check_conservation result =
  match result.c_stats with
  | Some
      (Wire.Stats_ok
         { session; pending; buffered; fed; accepted; shed; execs; drops; _ })
    ->
      if fed <> accepted + shed then
        fail "%s: conservation violated: fed %d <> accepted %d + shed %d"
          session fed accepted shed;
      if accepted <> execs + drops + pending + buffered then
        fail
          "%s: conservation violated: accepted %d <> execs %d + drops %d + \
           pending %d + buffered %d"
          session accepted execs drops pending buffered
  | Some _ | None -> fail "%s: no final stats" result.c_session

let percentile_us sorted p =
  if Array.length sorted = 0 then 0
  else
    let index =
      int_of_float (ceil (p *. float_of_int (Array.length sorted))) - 1
    in
    sorted.(max 0 (min index (Array.length sorted - 1)))

let rm_rf dir =
  let rec go path =
    if Sys.is_directory path then begin
      Array.iter (fun e -> go (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
    end
    else Sys.remove path
  in
  if Sys.file_exists dir then go dir

(* ---- the experiment ---------------------------------------------- *)

let run ?json ?(sessions = 8) ?(rounds = 240) ?(checkpoint_every = 8)
    ?(warmup = 40) () =
  let dir = Filename.temp_file "rrs-failover" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  Rrs_server.Slog.set_level Rrs_server.Slog.Error;
  let shard_count = 2 in
  let shard_sock i = Filename.concat dir (Printf.sprintf "shard-%d.sock" i) in
  let shard_snaps i = Filename.concat dir (Printf.sprintf "shard-%d.snaps" i) in
  let specs =
    List.init shard_count (fun i ->
        Unix.mkdir (shard_snaps i) 0o700;
        {
          Shard.sp_label = Printf.sprintf "shard-%d" i;
          sp_argv =
            [|
              Sys.executable_name; "shard-child"; "--socket"; shard_sock i;
              "--snap-dir"; shard_snaps i; "--checkpoint-every";
              string_of_int checkpoint_every;
            |];
        })
  in
  let supervisor = Shard.start ~base_backoff_ms:50 ~stable_after_s:5. specs in
  let stop_supervising = Atomic.make false in
  let supervisor_domain =
    Domain.spawn (fun () ->
        Shard.run supervisor ~stop:(fun () -> Atomic.get stop_supervising))
  in
  (* Wait for every shard to listen before opening the front door. *)
  (match
     Client.await_listening ~deadline_ms:10_000
       (List.init shard_count (fun i -> Server.Unix_socket (shard_sock i)))
   with
  | Ok () -> ()
  | Error refused ->
      fail "shards never came up: %s" (String.concat "; " (List.map snd refused)));
  let front = Server.Unix_socket (Filename.concat dir "front.sock") in
  let router_shards =
    List.init shard_count (fun i ->
        {
          Router.shard_label = Printf.sprintf "shard-%d" i;
          shard_address = Server.Unix_socket (shard_sock i);
        })
  in
  let router =
    Router.start
      {
        (Router.default_config ~address:front ~shards:router_shards) with
        Router.timeout_ms = 500;
        connect_timeout_ms = 300;
        fail_threshold = 1;
        probe_interval_ms = 25;
      }
  in
  let session_name i = Printf.sprintf "fo-%d" i in
  (* Ring ownership is deterministic, so pick the victim up front: the
     shard owning session fo-0. Sessions on the other shard(s) are the
     bystanders whose service must not degrade. *)
  let owner i = Router.shard_of_session router (session_name i) in
  let victim = owner 0 in
  let affected =
    List.filter (fun i -> owner i = victim) (List.init sessions Fun.id)
  in
  let surviving =
    List.filter (fun i -> owner i <> victim) (List.init sessions Fun.id)
  in
  let deadline_ms = 2_000 in
  let acked = Array.init sessions (fun _ -> Atomic.make 0) in
  let t_kill = Atomic.make 0. in
  let killer =
    Domain.spawn (fun () ->
        (* Arm once every session has [warmup] acknowledged rounds. *)
        let rec armed () =
          if
            List.for_all
              (fun i -> Atomic.get acked.(i) >= warmup)
              (List.init sessions Fun.id)
          then ()
          else begin
            Unix.sleepf 0.005;
            armed ()
          end
        in
        armed ();
        let pid = List.assoc victim (Shard.pids supervisor) in
        if pid <= 0 then fail "victim %s has no pid" victim;
        Atomic.set t_kill (Unix.gettimeofday ());
        Unix.kill pid Sys.sigkill)
  in
  let clients =
    List.init sessions (fun i ->
        Domain.spawn (fun () ->
            drive front ~session:(session_name i) ~seed:i ~rounds ~deadline_ms
              ~acked:acked.(i)))
  in
  let results = List.map Domain.join clients in
  Domain.join killer;
  let kill_at = Atomic.get t_kill in
  if kill_at = 0. then fail "the kill never fired";
  (* Tear down: router first (stops forwarding), then the children. *)
  Router.stop router;
  Atomic.set stop_supervising true;
  Domain.join supervisor_domain;
  Shard.stop ~grace_s:5. supervisor;
  let restarts = Shard.restarts supervisor in
  rm_rf dir;

  (* ---- analysis ---- *)
  List.iter check_conservation results;
  if restarts < 1 then fail "supervisor recorded no restart";
  let result i = List.nth results i in
  let deadline_expiries =
    List.fold_left
      (fun acc r ->
        acc
        + List.length (List.filter (fun o -> o.o_deadline) r.c_outcomes))
      0 results
  in
  if deadline_expiries > 0 then
    fail "%d replies blew the client deadline: the router hung"
      deadline_expiries;
  (* Recovery: kill -> first acked step on any affected session. *)
  let recovery_ms =
    let first_ok =
      List.fold_left
        (fun acc i ->
          List.fold_left
            (fun acc o ->
              if o.o_ok && o.o_at > kill_at then min acc o.o_at else acc)
            acc (result i).c_outcomes)
        infinity affected
    in
    if first_ok = infinity then fail "no affected session ever recovered";
    (first_ok -. kill_at) *. 1000.
  in
  (* Lost rounds: acked high-water mark before the kill vs the round
     the restored shard resumed from. *)
  let lost_of i =
    let outcomes = (result i).c_outcomes in
    let before =
      List.fold_left
        (fun acc o -> if o.o_ok && o.o_at <= kill_at then max acc o.o_round else acc)
        0 outcomes
    in
    let first_after =
      List.fold_left
        (fun acc o ->
          if o.o_ok && o.o_at > kill_at then min acc o.o_round else acc)
        max_int outcomes
    in
    if first_after = max_int then 0
    else max 0 (before - (first_after - 1))
  in
  let losses = List.map lost_of affected in
  let lost_max = List.fold_left max 0 losses in
  let lost_total = List.fold_left ( + ) 0 losses in
  if lost_max > checkpoint_every then
    fail "lost %d rounds on one session, checkpoint interval is %d" lost_max
      checkpoint_every;
  (* Surviving sessions: zero errors, p99 reported against the
     everyone-healthy baseline (their own pre-kill calls). *)
  let surviving_errors =
    List.fold_left (fun acc i -> acc + (result i).c_errors) 0 surviving
  in
  if surviving_errors > 0 then
    fail "%d errors on sessions of surviving shards" surviving_errors;
  let surviving_lat pred =
    let lats =
      List.concat_map
        (fun i ->
          List.filter_map
            (fun o -> if o.o_ok && pred o then Some o.o_latency_us else None)
            (result i).c_outcomes)
        surviving
    in
    let arr = Array.of_list lats in
    Array.sort compare arr;
    arr
  in
  let p99_before = percentile_us (surviving_lat (fun o -> o.o_at <= kill_at)) 0.99 in
  let p99_after = percentile_us (surviving_lat (fun o -> o.o_at > kill_at)) 0.99 in
  let affected_errors =
    List.fold_left (fun acc i -> acc + (result i).c_errors) 0 affected
  in

  let table =
    Rrs_stats.Table.create
      ~title:
        (Printf.sprintf
           "E21 crash-failover recovery (%d sessions, %d rounds, kill -9 one \
            of %d shards, checkpoint every %d)"
           sessions rounds shard_count checkpoint_every)
      ~columns:
        [ "affected"; "recovery ms"; "lost max"; "lost total"; "restarts";
          "surv errors"; "surv p99 us pre"; "surv p99 us post" ]
  in
  Rrs_stats.Table.add_row table
    [
      Rrs_stats.Table.cell_int (List.length affected);
      Rrs_stats.Table.cell_float ~decimals:0 recovery_ms;
      Rrs_stats.Table.cell_int lost_max;
      Rrs_stats.Table.cell_int lost_total;
      Rrs_stats.Table.cell_int restarts;
      Rrs_stats.Table.cell_int surviving_errors;
      Rrs_stats.Table.cell_int p99_before;
      Rrs_stats.Table.cell_int p99_after;
    ];
  Rrs_stats.Table.print table;
  Option.iter
    (fun path ->
      let b =
        Rrs_stats.Bench_io.create ~tag:(Rrs_stats.Bench_io.tag_of_path path)
      in
      Rrs_stats.Bench_io.start_experiment b ~id:"E21"
        ~claim:
          "A kill -9'd shard is restarted by the supervisor, restores from \
           its autosnap checkpoints and is re-admitted by the router within \
           a bounded window: affected sessions lose at most \
           checkpoint_every rounds and resume, sessions on surviving \
           shards see zero errors and unchanged p99, and every reply in \
           the outage window is a clean error within the deadline — the \
           router never hangs.";
      Rrs_stats.Bench_io.record b ~policy ~workload:"serve-failover-kill9" ~n
        ~delta ~cost:0 ~reconfig_count:0 ~drop_count:0 ~exec_count:0
        ~wall_s:0.
        ~extras:
          [
            ("sessions", sessions);
            ("rounds", rounds);
            ("shards", shard_count);
            ("checkpoint_every", checkpoint_every);
            ("affected_sessions", List.length affected);
            ("surviving_sessions", List.length surviving);
            ("recovery_ms", int_of_float recovery_ms);
            ("lost_rounds_max", lost_max);
            ("lost_rounds_total", lost_total);
            ("supervisor_restarts", restarts);
            ("affected_errors", affected_errors);
            ("surviving_errors", surviving_errors);
            ("deadline_expiries", deadline_expiries);
            ("surviving_p99_us_before", p99_before);
            ("surviving_p99_us_after", p99_after);
          ]
        ();
      Rrs_stats.Bench_io.write b ~path;
      Format.eprintf "wrote %s@." path)
    json
