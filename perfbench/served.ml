(* The served workloads, [tick] and [durable]: the [rrs] executable runs
   as its own process (one [rrs serve], or an [rrs shard-set]) and this
   process drives it over 2 connections from 2 generator domains.

   Every round of every session is recorded, so after the window each
   session's final stats can be checked against an in-process
   {!Rrs_sim.Stepper} fed the same accepted arrivals. *)

open Common
module Client = Rrs_server.Client
module Wire = Rrs_server.Wire
module Server = Rrs_server.Server
module Session = Rrs_server.Session
module Stepper = Rrs_sim.Stepper
module Ledger = Rrs_sim.Ledger
module Json = Rrs_sim.Event_sink.Json

type shape = {
  name : string;
  wire : int;
  n : int;
  delta : int;
  bounds : int array;
  jobs_per_round : int;
  zipf_s : float option;  (** colour popularity; [None] = uniform *)
  stats_every : int;  (** a [stats] read every k-th round; 0 = never *)
  rate : float option;  (** open-loop session-rounds/s; [None] = closed loop *)
  checkpoint_every : int;  (** 0 = a plain [rrs serve] without snapshots *)
  setups : int;  (** deployments started per run; the median is [setup_s] *)
}

(* Tiny frames, little engine work, open loop at about a quarter of the
   closed-loop capacity: dominated by the event loop, the worker hop,
   the /2 codec and the kernel round trip. *)
let tick =
  {
    name = "tick";
    wire = 2;
    n = 8;
    delta = 4;
    bounds = [| 2; 3; 4; 6; 8; 12; 16; 24 |];
    jobs_per_round = 8;
    zipf_s = None;
    stats_every = 0;
    rate = Some 2000.;
    checkpoint_every = 0;
    setups = 21;
  }

(* The deployment shape: router hop, /1 JSON at the front, autosnap
   writes beside reads. *)
let durable =
  {
    name = "durable";
    wire = 1;
    n = 16;
    delta = 8;
    bounds = Array.init 32 (fun c -> 4 lsl (c mod 4));
    jobs_per_round = 16;
    zipf_s = Some 1.0;
    stats_every = 8;
    rate = None;
    checkpoint_every = 64;
    setups = 7;
  }

let policy = "dlru-edf"
let connections = 2
let sessions_per_connection = 4
let shards = 2
let deadline_ms = 20_000

(* The router's ring over shard-set's shard labels: which shard owns a
   session, and so where its socket and autosnaps live. *)
let ring = Rrs_server.Router.Ring.make (Array.init shards (Printf.sprintf "shard-%d"))
let owner name = Rrs_server.Router.Ring.index ring name
let shard_path dir k file = Filename.concat dir (Printf.sprintf "shard-%d%s" k file)

(* {1 Sessions and their round log} *)

type round_log = {
  colors : int array;
  counts : int array;
  accepted : bool;  (** the server answered [fed] *)
  stepped : bool;  (** the server answered [stepped] *)
}

type sess = {
  s_name : string;
  s_rng : Random.State.t;
  s_cdf : float array;
  mutable s_log : round_log list;  (** newest first *)
  mutable s_round : int;
  mutable s_fed : int;
  mutable s_accepted : int;
}

let make_sess shape ~seed ~index name =
  let colors = Array.length shape.bounds in
  let weights =
    Array.init colors (fun c ->
        match shape.zipf_s with
        | None -> 1.
        | Some s -> Rrs_workload.Gen.zipf_weight ~rank:(c + 1) ~s)
  in
  let total = Array.fold_left ( +. ) 0. weights in
  let acc = ref 0. in
  let cdf =
    Array.map
      (fun w ->
        acc := !acc +. (w /. total);
        !acc)
      weights
  in
  {
    s_name = name;
    s_rng = Random.State.make [| 0xBE7C; seed; index |];
    s_cdf = cdf;
    s_log = [];
    s_round = 0;
    s_fed = 0;
    s_accepted = 0;
  }

let arrivals shape s =
  let colors = Array.length shape.bounds in
  let counts = Array.make colors 0 in
  for _ = 1 to shape.jobs_per_round do
    let u = Random.State.float s.s_rng 1. in
    let c = ref 0 in
    while !c < colors - 1 && s.s_cdf.(!c) < u do
      incr c
    done;
    counts.(!c) <- counts.(!c) + 1
  done;
  let present = List.filter (fun c -> counts.(c) > 0) (List.init colors Fun.id) in
  (Array.of_list present, Array.of_list (List.map (fun c -> counts.(c)) present))

let session_names shape ~seed =
  let total = connections * sessions_per_connection in
  match shape.checkpoint_every with
  | 0 -> List.init total (fun i -> Printf.sprintf "t%d-%d" seed i)
  | _ ->
      (* Pick names with the router's own ring so each shard owns the
         same number of sessions; connection c gets an equal share of
         every shard's sessions. *)
      let per_shard = total / shards in
      let owned = Array.make shards [] in
      let i = ref 0 in
      while Array.exists (fun l -> List.length l < per_shard) owned do
        let name = Printf.sprintf "d%d-%d" seed !i in
        let k = owner name in
        if List.length owned.(k) < per_shard then owned.(k) <- owned.(k) @ [ name ];
        incr i
      done;
      let per_conn = per_shard / connections in
      List.concat_map
        (fun c ->
          List.concat_map
            (fun k -> List.filteri (fun j _ -> j / per_conn = c) owned.(k))
            (List.init shards Fun.id))
        (List.init connections Fun.id)

(* {1 The reference} *)

let stepper_config shape name =
  { Stepper.name; delta = shape.delta; bounds = shape.bounds; n = shape.n;
    speed = 1; horizon = 0 }

let policy_module () =
  match Rrs_core.Policies.find policy with
  | Some p -> p
  | None -> fail "policy %s is not registered" policy

(* An in-process stepper fed the session's accepted arrivals, round by
   round; [at] sees it after every round. [perturb] adds one job to the
   first accepted feed — the negative test of the gate. *)
let replay shape ?(profile = false) ?(perturb = false) ?(at = fun _ -> ()) s =
  let st =
    Stepper.create ~record_events:false ~profile ~policy:(policy_module ())
      (stepper_config shape s.s_name)
  in
  let bump = ref perturb in
  List.iter
    (fun r ->
      if r.accepted then begin
        let request =
          List.mapi
            (fun i c ->
              let k = r.counts.(i) in
              if i = 0 && !bump then (c, k + 1) else (c, k))
            (Array.to_list r.colors)
        in
        bump := false;
        Stepper.feed st request
      end;
      if r.stepped then begin
        Stepper.step st;
        at st
      end)
    (List.rev s.s_log);
  st

type ledger_view = {
  round : int;
  cost : int;
  reconfigs : int;
  drops : int;
  execs : int;
  pending : int;
  buffered : int;
  jobs_accepted : int;
}

let view_of_stepper st =
  let l = Stepper.ledger st in
  {
    round = Stepper.round st;
    cost = Ledger.total_cost l;
    reconfigs = Ledger.reconfig_count l;
    drops = Ledger.drop_count l;
    execs = Ledger.exec_count l;
    pending = Stepper.pool_pending st;
    buffered = Stepper.buffered_jobs st;
    jobs_accepted = Stepper.accepted_jobs st;
  }

let view_of_stats (st : Session.stats) =
  {
    round = st.st_round;
    cost = st.st_cost;
    reconfigs = st.st_reconfigs;
    drops = st.st_drops;
    execs = st.st_execs;
    pending = st.st_pending;
    buffered = st.st_buffered;
    jobs_accepted = st.st_accepted;
  }

let compare_views ~what got want =
  let check field g w =
    if g <> w then incorrect "%s: %s is %d, the reference has %d" what field g w
  in
  check "round" got.round want.round;
  check "cost" got.cost want.cost;
  check "reconfigs" got.reconfigs want.reconfigs;
  check "drops" got.drops want.drops;
  check "execs" got.execs want.execs;
  check "pending" got.pending want.pending;
  check "buffered" got.buffered want.buffered;
  check "accepted" got.jobs_accepted want.jobs_accepted

let check_conservation ~what ~fed ~accepted ~shed ~execs ~drops ~pending
    ~buffered =
  if fed <> accepted + shed then
    incorrect "%s: fed %d <> accepted %d + shed %d" what fed accepted shed;
  if accepted <> execs + drops + pending + buffered then
    incorrect "%s: accepted %d <> execs %d + drops %d + pending %d + buffered %d"
      what accepted execs drops pending buffered

(* {1 Deployments} *)

type deployment = {
  main_pid : int;
  front : Server.address;
  dir : string;
  conns : Client.t array;
  setup_s : float;
}

(* Processes whose counters are the server's: the serve process, or the
   shard-set (router in-process) plus the shards named by its pidfiles. *)
let server_pids shape d =
  if shape.checkpoint_every = 0 then [ d.main_pid ]
  else
    d.main_pid
    :: List.filter_map
         (fun k ->
           try Some (int_of_string (String.trim (read_file (shard_path d.dir k ".pid"))))
           with Sys_error _ | Failure _ -> None)
         (List.init shards Fun.id)

let call_exn conn frame =
  match Client.call ~deadline_ms conn frame with
  | Ok reply -> reply
  | Error message -> fail "connection lost: %s" message

let connect_retry address ~give_up_ns =
  let rec go () =
    match Client.try_connect ~timeout_ms:1000 address with
    | Ok conn -> conn
    | Error message ->
        if now_ns () > give_up_ns then fail "%s" message;
        Unix.sleepf 0.0002;
        go ()
  in
  go ()

(* Which connection opens and drives each session, with the session's
   global index. Open loop interleaves, so each connection's due times
   are evenly spread. *)
let assign shape sessions =
  let indexed = List.mapi (fun j s -> (j, s)) sessions in
  Array.init connections (fun c ->
      List.filter
        (fun (j, _) ->
          if shape.rate = None then j / sessions_per_connection = c
          else j mod connections = c)
        indexed)

(* Spawn the deployment and time it until every session is open on a
   negotiated connection. *)
let deploy shape opts ~index sessions =
  let dir = Filename.concat opts.workdir (Printf.sprintf "%s-%d" shape.name index) in
  ensure_dir dir;
  let front_path = Filename.concat dir "front.sock" in
  let argv =
    if shape.checkpoint_every = 0 then
      [| opts.rrs; "serve"; "--socket"; front_path; "--log-level"; "warn" |]
    else
      [|
        opts.rrs; "shard-set"; "--shards"; string_of_int shards; "--dir"; dir;
        "--socket"; front_path; "--checkpoint-every";
        string_of_int shape.checkpoint_every; "--log-level"; "warn";
      |]
  in
  let t0 = now_ns () in
  let pid = spawn ~log_path:(Filename.concat dir "server.log") argv in
  let front = Server.Unix_socket front_path in
  let give_up_ns = t0 + 30_000_000_000 in
  let conns =
    Array.map
      (fun group ->
        let conn = connect_retry front ~give_up_ns in
        (match Client.negotiate conn ~wire:shape.wire with
        | Ok () -> ()
        | Error message -> fail "negotiate /%d: %s" shape.wire message);
        List.iter
          (fun (_, s) ->
            match
              call_exn conn
                (Wire.Open
                   { session = s.s_name; policy; delta = shape.delta;
                     bounds = shape.bounds; n = shape.n; speed = 1; horizon = 0;
                     queue_limit = 0; decl = None })
            with
            | Wire.Opened _ -> ()
            | Wire.Error_frame { message } -> fail "open %s: %s" s.s_name message
            | _ -> fail "open %s: unexpected reply" s.s_name)
          group;
        conn)
      (assign shape sessions)
  in
  let setup_s = float_of_int (now_ns () - t0) /. 1e9 in
  { main_pid = pid; front; dir; conns; setup_s }

let teardown shape d =
  Array.iter Client.close d.conns;
  let shard_pids = List.tl (server_pids shape d) in
  stop_child d.main_pid;
  List.iter (fun pid -> await_gone pid) shard_pids

(* {1 Generators} *)

type window = { t_begin : int; t_meas : int; t_mid : int; t_end : int; t_pw : int }

type phase = Warm | Plain | Traced

let phase_of w t = if t < w.t_meas then Warm else if t < w.t_mid then Plain else Traced
let in_pw w t = t >= w.t_pw && t < w.t_end

type acc = {
  lat_plain : Vec.t;  (** round latency, ns *)
  lat_plain_at : Vec.t;  (** each sample's reference time *)
  lat_traced : Vec.t;
  lat_traced_at : Vec.t;
  late : Vec.t;  (** open-loop send lateness behind the due time, ns *)
  feed_rtt : Vec.t;
  step_rtt : Vec.t;
  ckpt_rtt : Vec.t;  (** steps that cross a checkpoint *)
  stats_rtt : Vec.t;
  mutable encode_ns : int;
  mutable encodes : int;
  mutable parse_ns : int;
  mutable parses : int;
  mutable requests : int;
  mutable failed : int;
  mutable pw_requests : int;
  mutable pw_rounds : int;
  mutable pw_jobs : int;
  mutable pw_last_done : int;  (** last completion inside the window *)
  mutable pw_bytes0 : int;
  mutable pw_bytes1 : int;
  mutable last_late_ns : int;
  mutable error : exn option;  (** what stopped the generator early *)
}

let new_acc () =
  {
    lat_plain = Vec.create ();
    lat_plain_at = Vec.create ();
    lat_traced = Vec.create ();
    lat_traced_at = Vec.create ();
    late = Vec.create ();
    feed_rtt = Vec.create ();
    step_rtt = Vec.create ();
    ckpt_rtt = Vec.create ();
    stats_rtt = Vec.create ();
    encode_ns = 0;
    encodes = 0;
    parse_ns = 0;
    parses = 0;
    requests = 0;
    failed = 0;
    pw_requests = 0;
    pw_rounds = 0;
    pw_jobs = 0;
    pw_last_done = 0;
    pw_bytes0 = -1;
    pw_bytes1 = 0;
    last_late_ns = 0;
    error = None;
  }

let client_bytes conn = Client.bytes_sent conn + Client.bytes_received conn

(* One request. Traced requests also time the Wire layer on the exact
   frames: the request's encoding, and a push-parse of the reply's
   bytes (re-encoded, which is byte-identical). *)
let request shape acc conn ~phase ~pw ~rtt frame =
  let framing = if shape.wire = 2 then Wire.V2 else Wire.V1 in
  let traced = phase = Traced in
  if traced then begin
    let t = now_ns () in
    ignore (Sys.opaque_identity (Wire.to_wire framing frame));
    acc.encode_ns <- acc.encode_ns + (now_ns () - t);
    acc.encodes <- acc.encodes + 1
  end;
  let t0 = now_ns () in
  let reply = call_exn conn frame in
  let t1 = now_ns () in
  acc.requests <- acc.requests + 1;
  if pw then acc.pw_requests <- acc.pw_requests + 1;
  if traced then begin
    Vec.push rtt (t1 - t0);
    let bytes = Bytes.of_string (Wire.to_wire framing reply) in
    let stream = Wire.Stream.create framing in
    let t = now_ns () in
    Wire.Stream.feed stream bytes 0 (Bytes.length bytes);
    ignore (Sys.opaque_identity (Wire.Stream.next stream));
    acc.parse_ns <- acc.parse_ns + (now_ns () - t);
    acc.parses <- acc.parses + 1
  end;
  reply

(* One session round: feed, step, and every [stats_every] rounds a
   stats read whose ledger must already conserve jobs. Returns the
   completion time and the jobs fed. *)
let round shape acc conn s ~phase ~pw =
  let colors, counts = arrivals shape s in
  let jobs = Array.fold_left ( + ) 0 counts in
  let session = s.s_name in
  let fed =
    request shape acc conn ~phase ~pw ~rtt:acc.feed_rtt
      (Wire.Feed { session; colors; counts; decl = None })
  in
  let accepted =
    match fed with
    | Wire.Fed _ ->
        s.s_fed <- s.s_fed + jobs;
        s.s_accepted <- s.s_accepted + jobs;
        true
    | Wire.Shed _ ->
        s.s_fed <- s.s_fed + jobs;
        acc.failed <- acc.failed + 1;
        false
    | _ ->
        acc.failed <- acc.failed + 1;
        false
  in
  let next = s.s_round + 1 in
  let ckpt = shape.checkpoint_every > 0 && next mod shape.checkpoint_every = 0 in
  let stepped =
    match
      request shape acc conn ~phase ~pw
        ~rtt:(if ckpt then acc.ckpt_rtt else acc.step_rtt)
        (Wire.Step { session; rounds = 1 })
    with
    | Wire.Stepped { round; _ } when round = next ->
        s.s_round <- next;
        true
    | Wire.Stepped { round; _ } ->
        incorrect "%s: step answered round %d, expected %d" session round next
    | _ ->
        acc.failed <- acc.failed + 1;
        false
  in
  s.s_log <- { colors; counts; accepted; stepped } :: s.s_log;
  if shape.stats_every > 0 && next mod shape.stats_every = 0 then begin
    match
      request shape acc conn ~phase ~pw ~rtt:acc.stats_rtt (Wire.Stats { session })
    with
    | Wire.Stats_ok st ->
        check_conservation ~what:session ~fed:st.fed ~accepted:st.accepted
          ~shed:st.shed ~execs:st.execs ~drops:st.drops ~pending:st.pending
          ~buffered:st.buffered
    | _ -> acc.failed <- acc.failed + 1
  end;
  (now_ns (), jobs)

(* Latency by the round's reference time; throughput by completion
   inside the window. *)
let record acc w ~phase ~t_ref ~t_done ~jobs =
  (match phase with
  | Warm -> ()
  | Plain ->
      Vec.push acc.lat_plain (t_done - t_ref);
      Vec.push acc.lat_plain_at t_ref
  | Traced ->
      Vec.push acc.lat_traced (t_done - t_ref);
      Vec.push acc.lat_traced_at t_ref);
  if in_pw w t_done then begin
    acc.pw_rounds <- acc.pw_rounds + 1;
    acc.pw_jobs <- acc.pw_jobs + jobs;
    acc.pw_last_done <- max acc.pw_last_done t_done
  end

let mark_pw_start acc conn w t =
  if acc.pw_bytes0 < 0 && t >= w.t_pw then acc.pw_bytes0 <- client_bytes conn

(* Open loop: session j of S is due at t_begin + k * period + j * period / S,
   and its round is timed from that due time, so a stall is charged to
   every round it delays. *)
let drive_open shape w ~rate conn group acc =
  let total = connections * sessions_per_connection in
  let period = int_of_float (float_of_int total *. 1e9 /. rate) in
  let rec loop k =
    let continue = ref true in
    List.iter
      (fun (j, s) ->
        if !continue then begin
          let due = w.t_begin + (k * period) + (j * period / total) in
          if due >= w.t_end then continue := false
          else begin
            (* Sleep to just short of the due time (a sleep overshoots by
               the kernel's 50 us timer slack), then spin the rest. *)
            let wait = due - now_ns () - 100_000 in
            if wait > 0 then Unix.sleepf (float_of_int wait /. 1e9);
            while now_ns () < due do
              Thread.yield ()
            done;
            let start = now_ns () in
            mark_pw_start acc conn w due;
            let phase = phase_of w due in
            if phase <> Warm then Vec.push acc.late (start - due);
            acc.last_late_ns <- start - due;
            let t_done, jobs = round shape acc conn s ~phase ~pw:(in_pw w due) in
            record acc w ~phase ~t_ref:due ~t_done ~jobs
          end
        end)
      group;
    if !continue then loop (k + 1)
  in
  loop 0;
  acc.pw_bytes1 <- client_bytes conn

(* Closed loop: each connection runs its sessions' rounds back to back;
   a round is timed from its first send. *)
let drive_closed shape w conn group acc =
  let rec loop () =
    let start = now_ns () in
    if start < w.t_end then begin
      List.iter
        (fun (_, s) ->
          let start = now_ns () in
          if start < w.t_end then begin
            mark_pw_start acc conn w start;
            let phase = phase_of w start in
            let t_done, jobs = round shape acc conn s ~phase ~pw:(in_pw w start) in
            record acc w ~phase ~t_ref:start ~t_done ~jobs
          end)
        group;
      loop ()
    end
  in
  loop ();
  acc.pw_bytes1 <- client_bytes conn

(* {1 After the window} *)

(* The session's newest autosnap, restored: its document and ledger. *)
let load_autosnap shape d s =
  let doc =
    try read_file (shard_path d.dir (owner s.s_name) (".snaps/" ^ s.s_name ^ ".sess.jsonl"))
    with Sys_error message -> incorrect "%s: no autosnap: %s" s.s_name message
  in
  match Session.restore doc with
  | Error message -> incorrect "%s: autosnap does not restore: %s" s.s_name message
  | Ok restored ->
      let view = view_of_stats (Session.stats restored) in
      Session.release restored;
      if view.round > s.s_round || s.s_round - view.round >= shape.checkpoint_every
      then
        incorrect "%s: newest autosnap is at round %d, final round %d" s.s_name
          view.round s.s_round;
      (doc, view)

(* The gate for one session: the final stats conserve jobs and equal the
   reference stepper's ledger; in [durable] the newest autosnap equals
   the reference at its checkpoint round. Returns the autosnap document. *)
let check_session shape ~perturb d conn s =
  let got =
    match call_exn conn (Wire.Stats { session = s.s_name }) with
    | Wire.Stats_ok st ->
        check_conservation ~what:s.s_name ~fed:st.fed ~accepted:st.accepted
          ~shed:st.shed ~execs:st.execs ~drops:st.drops ~pending:st.pending
          ~buffered:st.buffered;
        if st.fed <> s.s_fed then
          incorrect "%s: server counted %d jobs fed, the generator sent %d"
            s.s_name st.fed s.s_fed;
        {
          round = st.round;
          cost = st.cost;
          reconfigs = st.reconfigs;
          drops = st.drops;
          execs = st.execs;
          pending = st.pending;
          buffered = st.buffered;
          jobs_accepted = st.accepted;
        }
    | Wire.Error_frame { message } -> incorrect "%s: stats: %s" s.s_name message
    | _ -> incorrect "%s: stats: unexpected reply" s.s_name
  in
  let snap = if shape.checkpoint_every > 0 then Some (load_autosnap shape d s) else None in
  let at_snap = ref None in
  let reference =
    replay shape ~perturb s ~at:(fun stepper ->
        match snap with
        | Some (_, v) when Stepper.round stepper = v.round ->
            at_snap := Some (view_of_stepper stepper)
        | _ -> ())
  in
  compare_views ~what:(s.s_name ^ " final stats") got (view_of_stepper reference);
  match (snap, !at_snap) with
  | None, _ -> None
  | Some (doc, got), Some want ->
      compare_views ~what:(s.s_name ^ " autosnap") got want;
      Some doc
  | Some (_, got), None -> incorrect "%s: no reference round %d" s.s_name got.round

(* {1 Per-layer probes for the traced run} *)

let server_metrics shape d =
  let addresses =
    if shape.checkpoint_every = 0 then [ d.front ]
    else
      List.init shards (fun k -> Server.Unix_socket (shard_path d.dir k ".sock"))
  in
  let docs =
    List.map
      (fun address ->
        let conn = connect_retry address ~give_up_ns:(now_ns () + 5_000_000_000) in
        Fun.protect
          ~finally:(fun () -> Client.close conn)
          (fun () ->
            match call_exn conn (Wire.Metrics { slow = 0 }) with
            | Wire.Metrics_ok { doc; _ } -> Json.parse_fields doc
            | _ -> fail "metrics: unexpected reply"))
      addresses
  in
  let mean key =
    List.fold_left (fun a doc -> a +. float_of_int (Json.int_field doc key)) 0. docs
    /. float_of_int (List.length docs)
  in
  (mean "req_latency_us_feed_p50", mean "req_latency_us_step_p50",
   mean "lock_wait_us_p99")

(* A stats call through the router minus the same call made directly on
   the owning shard's socket. *)
let router_hop_us d sessions =
  let direct =
    Array.init shards (fun k ->
        let conn =
          connect_retry (Server.Unix_socket (shard_path d.dir k ".sock"))
            ~give_up_ns:(now_ns () + 5_000_000_000)
        in
        (match Client.negotiate conn ~wire:1 with
        | Ok () -> ()
        | Error message -> fail "negotiate shard: %s" message);
        conn)
  in
  let front = Vec.create () and back = Vec.create () in
  let time conn s out =
    let t = now_ns () in
    (match call_exn conn (Wire.Stats { session = s.s_name }) with
    | Wire.Stats_ok _ -> ()
    | _ -> fail "router hop: stats failed");
    Vec.push out (now_ns () - t)
  in
  let front_conn = d.conns.(0) in
  for _ = 1 to 50 do
    List.iter
      (fun s ->
        time front_conn s front;
        time direct.(owner s.s_name) s back)
      sessions
  done;
  Array.iter Client.close direct;
  float_of_int (p50_or_zero (Vec.to_array front) - p50_or_zero (Vec.to_array back))
  /. 1e3

(* The Session layer in process, driven with the same arrivals. *)
let session_replica shape sessions =
  let feed_ns = ref 0 and feeds = ref 0 and step_ns = ref 0 and steps = ref 0 in
  List.iter
    (fun s ->
      let checkpoint_every =
        if shape.checkpoint_every > 0 then Some shape.checkpoint_every else None
      in
      match
        Session.create ~name:s.s_name ~policy ?checkpoint_every
          (stepper_config shape s.s_name)
      with
      | Error message -> fail "session replica: %s" message
      | Ok replica ->
          List.iter
            (fun r ->
              if r.accepted then begin
                let t = now_ns () in
                ignore (Session.feed replica ~colors:r.colors ~counts:r.counts);
                feed_ns := !feed_ns + (now_ns () - t);
                incr feeds
              end;
              if r.stepped then begin
                let t = now_ns () in
                ignore (Session.step replica ~rounds:1);
                step_ns := !step_ns + (now_ns () - t);
                incr steps
              end)
            (List.rev s.s_log);
          Session.release replica)
    sessions;
  (mean_ns ~total:!feed_ns ~count:!feeds, mean_ns ~total:!step_ns ~count:!steps)

(* The engine's own phase profile over the same rounds. *)
let engine_profile shape sessions =
  let phases = Array.make 4 0. and minor = ref 0. and rounds = ref 0 in
  let jobs = ref 0 and reconfigs = ref 0 and drops = ref 0 in
  List.iter
    (fun s ->
      let st = replay shape ~profile:true s in
      rounds := !rounds + Stepper.round st;
      jobs := !jobs + Stepper.accepted_jobs st;
      let result = Stepper.finish st in
      reconfigs := !reconfigs + Ledger.reconfig_count result.ledger;
      drops := !drops + Ledger.drop_count result.ledger;
      match result.profile with
      | None -> ()
      | Some p ->
          List.iteri
            (fun i (_, wall_s, words) ->
              if i < 4 then phases.(i) <- phases.(i) +. wall_s;
              minor := !minor +. words)
            (Rrs_obs.Profile.fields p))
    sessions;
  Batch.engine_metrics ~phases ~minor:!minor ~rounds:!rounds ~jobs:!jobs
    ~reconfigs:!reconfigs ~drops:!drops

let snap_metrics opts docs =
  let path = Filename.concat opts.workdir "snap-probe.sess.jsonl" in
  let writes = ref [] and restores = ref [] in
  List.iter
    (fun doc ->
      for _ = 1 to 5 do
        let t = now_ns () in
        match Session.restore doc with
        | Error message -> fail "snapshot probe: %s" message
        | Ok session ->
            restores := float_of_int (now_ns () - t) :: !restores;
            let t = now_ns () in
            Session.save session ~path;
            writes := float_of_int (now_ns () - t) :: !writes;
            Session.release session
      done)
    docs;
  let bytes =
    float_of_int (List.fold_left (fun a d -> a + String.length d) 0 docs)
    /. float_of_int (max 1 (List.length docs))
  in
  [
    metric "snap.bytes" "B" bytes;
    metric "snap.write_ns" "ns" (median_float !writes);
    metric "snap.restore_ns" "ns" (median_float !restores);
  ]

(* {1 The run} *)

let us_of_ns v = float_of_int v /. 1e3

let run shape opts =
  let names = session_names shape ~seed:opts.seed in
  let sessions =
    List.mapi (fun index name -> make_sess shape ~seed:opts.seed ~index name) names
  in
  (* Several deployments, the last one kept: set-up time is a median. *)
  let setups = ref [] in
  let rec deploy_n k =
    let d = deploy shape opts ~index:k sessions in
    setups := d.setup_s :: !setups;
    if k + 1 < shape.setups then begin
      teardown shape d;
      deploy_n (k + 1)
    end
    else d
  in
  let d = deploy_n 0 in
  (* After set-up: the spinners slow process start-up (a bimodal 4 ms /
     8-12 ms spread in tick set-up with them, 4-5 ms without). *)
  keep_warm ();
  let warm = 0.5 in
  let t_begin = now_ns () + 2_000_000 in
  let at s = t_begin + int_of_float (s *. 1e9) in
  let t_meas = at warm and t_end = at (warm +. opts.seconds) in
  let t_mid = if opts.trace then at (warm +. (opts.seconds /. 2.)) else t_end in
  let w = { t_begin; t_meas; t_mid; t_end; t_pw = (if opts.trace then t_mid else t_meas) } in
  let groups = assign shape sessions in
  let accs = Array.init connections (fun _ -> new_acc ()) in
  let pids = server_pids shape d in
  let domains =
    Array.mapi
      (fun c group ->
        let conn = d.conns.(c) and acc = accs.(c) in
        Thread.create
          (fun () ->
            try
              match shape.rate with
              | Some rate -> drive_open shape w ~rate conn group acc
              | None -> drive_closed shape w conn group acc
            with e -> acc.error <- Some e)
          ())
      groups
  in
  let sleep_until t =
    let wait = t - now_ns () in
    if wait > 0 then Unix.sleepf (float_of_int wait /. 1e9)
  in
  sleep_until w.t_pw;
  let p0 = read_procs pids in
  sleep_until w.t_end;
  let p1 = read_procs pids in
  Array.iter Thread.join domains;
  Array.iter (fun a -> Option.iter raise a.error) accs;
  (* The gate, before any number is reported. *)
  let docs =
    List.concat_map
      (fun c ->
        List.filter_map
          (fun (_, s) -> check_session shape ~perturb:opts.perturb d d.conns.(c) s)
          groups.(c))
      (List.init connections Fun.id)
  in
  let total f = Array.fold_left (fun a acc -> a + f acc) 0 accs in
  let cat f = Vec.concat (Array.to_list (Array.map f accs)) in
  let attempted = total (fun a -> a.requests) and failed = total (fun a -> a.failed) in
  let behind_ms = float_of_int (total (fun a -> max 0 a.last_late_ns)) /. 1e6 in
  if shape.rate <> None && behind_ms > 100. then
    fail "generator fell behind its schedule by %.1f ms: run not scored" behind_ms;
  let lat_plain = cat (fun a -> a.lat_plain) and lat_traced = cat (fun a -> a.lat_traced) in
  let p50_plain = percentile_exn ~what:"round latency" lat_plain 0.5 in
  let note_n v = Printf.sprintf "(n=%d)" (Array.length v) in
  (* The tail: printed with its sample count, and a per-layer figure of
     the traced run, but not scored (see README.md). *)
  let p99_of lat at t0 t1 =
    let p99, windows = sub_window_p99 lat ~at ~t0 ~t1 in
    metric "round.p99_us" "us" (us_of_ns p99)
      ~note:(Printf.sprintf "(n=%d, median of %d sub-window p99s)" (Array.length lat) windows)
  in
  let metrics =
    if not opts.trace then begin
      let p99 = p99_of lat_plain (cat (fun a -> a.lat_plain_at)) w.t_meas w.t_end in
      print_line { p99 with m_name = "round_p99_us" };
      let rounds = total (fun a -> a.pw_rounds) and jobs = total (fun a -> a.pw_jobs) in
      let last = Array.fold_left (fun m a -> max m a.pw_last_done) w.t_pw accs in
      let window_s = float_of_int (last - w.t_pw) /. 1e9 in
      [
        metric "setup_s" "s" (median_float !setups)
          ~note:(Printf.sprintf "(median of %d)" shape.setups);
        metric "round_p50_us" "us" (us_of_ns p50_plain) ~note:(note_n lat_plain);
        metric "rounds_per_s" "1/s" (float_of_int rounds /. window_s);
        metric "jobs_per_s" "1/s" (float_of_int jobs /. window_s);
      ]
    end
    else begin
      let late = cat (fun a -> a.late) in
      let feed_rtt = cat (fun a -> a.feed_rtt) in
      let encode_ns =
        mean_ns ~total:(total (fun a -> a.encode_ns)) ~count:(total (fun a -> a.encodes))
      in
      let parse_ns =
        mean_ns ~total:(total (fun a -> a.parse_ns)) ~count:(total (fun a -> a.parses))
      in
      let requests = max 1 (total (fun a -> a.pw_requests)) in
      let frames = 2 * requests in
      let bytes = total (fun a -> a.pw_bytes1 - max 0 a.pw_bytes0) in
      let per_frame v = float_of_int v /. float_of_int requests in
      let srv_feed, srv_step, srv_lock = server_metrics shape d in
      let feed_rtt_p50 = p50_or_zero feed_rtt in
      let rtt_p50 name v = metric name "us" (us_of_ns (p50_or_zero v)) ~note:(note_n v) in
      let session_feed, session_step = session_replica shape sessions in
      let p50_traced = percentile_exn ~what:"traced round latency" lat_traced 0.5 in
      [
        p99_of lat_traced (cat (fun a -> a.lat_traced_at)) w.t_mid w.t_end;
        metric "gen.late_p99_us" "us"
          (match percentile late 0.99 with Some v -> us_of_ns v | None -> 0.)
          ~note:(note_n late);
        metric "gen.samples" "count" (float_of_int (Array.length lat_traced));
        metric "client.feed_rtt_p50_us" "us" (us_of_ns feed_rtt_p50) ~note:(note_n feed_rtt);
        rtt_p50 "client.step_rtt_p50_us" (cat (fun a -> a.step_rtt));
        rtt_p50 "client.stats_rtt_p50_us" (cat (fun a -> a.stats_rtt));
        rtt_p50 "client.step_ckpt_rtt_p50_us" (cat (fun a -> a.ckpt_rtt));
        metric "wire.encode_ns" "ns" encode_ns;
        metric "wire.parse_ns" "ns" parse_ns;
        metric "wire.bytes_per_frame" "B" (float_of_int bytes /. float_of_int frames);
        metric "wire.frames" "count" (float_of_int frames);
        metric "server.cpu_us_per_frame" "us" (per_frame ((p1.cpu_ticks - p0.cpu_ticks) * 10_000));
        metric "server.syscr_per_frame" "count" (per_frame (p1.syscr - p0.syscr));
        metric "server.syscw_per_frame" "count" (per_frame (p1.syscw - p0.syscw));
        metric "server.vctx_per_frame" "count" (per_frame (p1.vctx - p0.vctx));
        metric "server.rss_kib" "KiB" (float_of_int p1.rss_kib);
        metric "transport.residual_us" "us"
          (us_of_ns feed_rtt_p50 -. srv_feed -. ((encode_ns +. parse_ns) /. 1e3));
        metric "server.feed_p50_us" "us" srv_feed;
        metric "server.step_p50_us" "us" srv_step;
        metric "server.lock_wait_p99_us" "us" srv_lock;
        metric "session.feed_ns" "ns" session_feed;
        metric "session.step_ns" "ns" session_step;
      ]
      @ engine_profile shape sessions
      @ (if shape.checkpoint_every > 0 then
           metric "router.hop_us" "us" (router_hop_us d sessions) :: snap_metrics opts docs
         else [])
      @ [
          metric "trace.overhead_pct" "%"
            (100. *. float_of_int (p50_traced - p50_plain) /. float_of_int p50_plain)
            ~note:"(round p50, traced vs untraced half)";
        ]
    end
  in
  teardown shape d;
  print_line
    (metric "failed_frac" "ratio"
       (float_of_int failed /. float_of_int (max 1 attempted))
       ~note:(Printf.sprintf "(%d of %d requests; not scored: 0 by design)" failed attempted));
  (attempted, failed, metrics)
