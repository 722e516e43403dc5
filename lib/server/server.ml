module Json = Rrs_sim.Event_sink.Json
module Probe = Rrs_obs.Probe

type address = Net.address = Unix_socket of string | Tcp of string * int

type config = {
  address : address;
  snap_dir : string option;
  trace_dir : string option;
  queue_limit : int; (* per-session default; 0 = Session default *)
  max_wire : int; (* highest wire version negotiable; 0 = both (2) *)
  checkpoint_every : int; (* checkpoint interval; 0 = Session default *)
  max_reply : int; (* reply frame size cap; 0 = Wire.max_frame *)
  metrics : address option; (* OpenMetrics exposition listener *)
  slow_threshold_us : int; (* slow-request log threshold; 0 = default *)
  slow_log : int; (* slow-request log capacity; 0 = default *)
  server_id : string; (* identity surfaced in hello_ok *)
  autosnap : bool;
      (* write each session's snapshot at checkpoint boundaries, so a
         crash (no drain) loses at most one unsnapshotted window *)
  admission : Rrs_workload.Demand.t option;
      (* deployment capacity spec (rrs-spec/1): its [n] (or the
         analytically sized minimum) times its speed is the supply
         budget the admission gate prices declared sessions against *)
  admission_mode : Admission.mode; (* off | warn | enforce *)
}

let default_config address =
  { address; snap_dir = None; trace_dir = None; queue_limit = 0;
    max_wire = 2; checkpoint_every = 0; max_reply = 0;
    metrics = None; slow_threshold_us = 0; slow_log = 0; server_id = "rrs";
    autosnap = false; admission = None; admission_mode = Admission.Off }

(* ---- session manager ----

   Owned by the event loop, like the sessions in it: every frame, every
   off-loop open's continuation and every metrics read runs there, and
   restore/drain run while no loop does. Hence no lock. *)

type manager = {
  m_sessions : (string, Session.t) Hashtbl.t;
  m_opening : (string, unit) Hashtbl.t;
      (* names whose [Session.create] runs off the loop: reserved, so a
         second open of the name is refused at once *)
  m_queue_limit : int;
  m_trace_dir : string option;
  m_snap_dir : string option;
  m_checkpoint_every : int option; (* None = Session's default *)
  m_metrics : Metrics.t;
  m_autosnap : bool;
  m_admission : Admission.t option; (* None = gate off *)
}

let session_names m =
  Hashtbl.fold (fun name _ acc -> name :: acc) m.m_sessions []
  |> List.sort String.compare

(* ---- frame handling ---- *)

let err format = Printf.ksprintf (fun message -> Wire.Error_frame { message }) format

let with_session m session f =
  match Hashtbl.find_opt m.m_sessions session with
  | None -> err "no such session %S" session
  | Some s -> f s

let snapshot_filename name = name ^ ".sess.jsonl"

(* Session names double as snapshot file names: keep them path-safe. *)
let valid_session_name name =
  name <> ""
  && String.length name <= 128
  && String.for_all
       (fun c ->
         (c >= 'a' && c <= 'z')
         || (c >= 'A' && c <= 'Z')
         || (c >= '0' && c <= '9')
         || c = '-' || c = '_' || c = '.')
       name
  && name.[0] <> '.'

(* ---- admission gate ----

   [admit] prices one declaration: the per-session analytic check
   (would the session drop its own declared load?) and the aggregate
   reservation (does the deployment still have budget?). [Ok police]
   admits — [police] says whether feeds must be held to the declared
   envelope (enforce mode). [Error reply] is the {!Wire.Admission_reject}
   to send instead; the caller sends it and creates nothing. Warn mode
   admits violations anyway (force-reserving, so the demand gauge tells
   the truth) and logs the constraint it would have enforced. The
   reservation taken here must be released if the open then fails. *)
let admit m ~session ~(config : Rrs_sim.Stepper.config) decl =
  match m.m_admission with
  | None -> Ok false (* no gate: the declaration is recorded, not priced *)
  | Some gate ->
      let enforce = Admission.mode gate = Admission.Enforce in
      let reject (r : Admission.reject) =
        Admission.note_rejected_open gate;
        Wire.Admission_reject
          { session; color = r.Admission.r_color; demand = r.r_demand;
            supply = r.r_supply; message = r.r_message }
      in
      let warn (r : Admission.reject) =
        Slog.warn ~event:"admission_warn"
          [ ("session", session); ("constraint", r.Admission.r_message) ]
      in
      let session_verdict =
        Admission.check_session ~session ~delta:config.Rrs_sim.Stepper.delta
          ~bounds:config.bounds ~n:config.n ~speed:config.speed decl
      in
      (match session_verdict with
      | Error r when enforce -> Error (reject r)
      | session_verdict ->
          (match session_verdict with Error r -> warn r | Ok () -> ());
          let mjpr = Admission.decl_mjpr decl in
          (match Admission.try_admit gate ~session ~mjpr with
          | Ok () -> Ok enforce
          | Error r when enforce -> Error (reject r)
          | Error r ->
              warn r;
              Admission.force_admit gate ~session ~mjpr;
              Ok enforce))

let release_admission m ~session =
  Option.iter (fun gate -> Admission.release gate ~session) m.m_admission

(* An open runs on the loop up to [Session.create]. That runs off the
   loop when a trace directory is set (the trace file's open(2) can
   block for good), with the name reserved meanwhile; the result is
   settled back on the loop. *)
let handle_open m ~session ~policy ~delta ~bounds ~n ~speed ~horizon
    ~queue_limit ~decl =
  if not (valid_session_name session) then
    Handler.Reply
      (err "invalid session name %S (want [A-Za-z0-9._-]+, not dot-led)"
         session)
  else if Hashtbl.mem m.m_sessions session || Hashtbl.mem m.m_opening session
  then Handler.Reply (err "session %S already open" session)
  else begin
    let queue_limit = if queue_limit > 0 then queue_limit else m.m_queue_limit in
    let config =
      { Rrs_sim.Stepper.name = session; delta; bounds; n;
        speed = (if speed > 0 then speed else 1); horizon }
    in
    let admitted =
      match decl with
      | None -> Ok false
      | Some d -> (
          match Admission.validate_decl ~colors:(Array.length bounds) d with
          | Error message -> Error (err "open: %s" message)
          | Ok () -> admit m ~session ~config d)
    in
    match admitted with
    | Error reply ->
        Handler.Reply reply (* an enforce-mode reject leaves no state *)
    | Ok police -> (
        let create () =
          Session.create ~name:session ~policy ~queue_limit
            ?checkpoint_every:m.m_checkpoint_every ?trace_dir:m.m_trace_dir
            config
        in
        let settle created =
          Hashtbl.remove m.m_opening session;
          match created () with
          | Ok s ->
              Option.iter (fun d -> Session.declare s ~decl:d ~police) decl;
              Hashtbl.replace m.m_sessions session s;
              Wire.Opened { session; round = 0 }
          | Error message ->
              if decl <> None then release_admission m ~session;
              Wire.Error_frame { message }
          | exception e ->
              if decl <> None then release_admission m ~session;
              raise e
        in
        match m.m_trace_dir with
        | None -> Handler.Reply (settle create)
        | Some _ ->
            Hashtbl.replace m.m_opening session ();
            Handler.Off_loop
              (fun () ->
                let created =
                  match create () with
                  | result -> fun () -> result
                  | exception e -> fun () -> raise e
                in
                fun () -> settle created))
  end

(* The metrics view, built on the loop: a fresh copy of the loop's
   registry, plus series derived from the live sessions. *)
let metrics_registry m =
  let merged = Metrics.merged m.m_metrics in
  let buffered = ref 0 and pending = ref 0 in
  let shed = ref 0 and fed = ref 0 and rounds = ref 0 in
  Hashtbl.iter
    (fun _ s ->
      let st = Session.stats s in
      buffered := !buffered + st.Session.st_buffered;
      pending := !pending + st.Session.st_pending;
      shed := !shed + st.Session.st_shed;
      fed := !fed + st.Session.st_fed;
      rounds := !rounds + st.Session.st_round)
    m.m_sessions;
  let set name value = Probe.set_gauge (Probe.gauge merged name) value in
  set "sessions_open" (Hashtbl.length m.m_sessions);
  set "sessions_buffered_jobs" !buffered;
  set "sessions_pending_jobs" !pending;
  set "sessions_shed_jobs" !shed;
  set "sessions_fed_jobs" !fed;
  set "sessions_rounds" !rounds;
  set "uptime_s" (Metrics.uptime_s m.m_metrics);
  set "slow_threshold_us" (Metrics.slow_threshold_us m.m_metrics);
  (match m.m_admission with
  | None -> ()
  | Some gate ->
      let supply = Admission.supply_mjpr gate in
      let demand = Admission.demand_mjpr gate in
      set "admission_supply_mjpr" supply;
      set "admission_demand_mjpr" demand;
      set "admission_headroom_mjpr" (max 0 (supply - demand));
      set "admission_sessions" (Admission.sessions gate);
      set "admission_rejected_total" (Admission.rejected_opens gate);
      set "admission_policed_feeds" (Admission.policed_feeds gate);
      set "admission_policed_jobs" (Admission.policed_jobs gate));
  merged

let metrics_doc = Metrics.registry_doc

let handle_metrics m ~slow =
  let doc = metrics_doc (metrics_registry m) in
  let entries =
    if slow <= 0 then [] else Metrics.slow_log ~max:slow m.m_metrics
  in
  let slow =
    String.concat "\n" (List.map Metrics.slow_to_json entries)
  in
  Wire.Metrics_ok { doc; slow }

(* The reply to one request frame on connection [conn], other than an
   open (see [handle_frame]). *)
let reply_to m conn frame =
  match frame with
  | Wire.Hello _ | Wire.Open _ -> assert false (* see [handle_frame] *)
  | Wire.Feed { session; colors; counts; decl } ->
      with_session m session (fun s ->
          (* A feed may re-declare: the new envelope passes the same
             gate as an open's (replacing the session's reservation).
             An enforce-mode reject refuses the whole frame — the jobs
             it carries are not fed. *)
          let redeclared =
            match decl with
            | None -> Ok ()
            | Some d -> (
                match
                  Admission.validate_decl ~colors:(Session.num_colors s) d
                with
                | Error message -> Error (err "feed: %s" message)
                | Ok () -> (
                    match admit m ~session ~config:(Session.config s) d with
                    | Error reply -> Error reply
                    | Ok police ->
                        Session.declare s ~decl:d ~police;
                        Ok ()))
          in
          match redeclared with
          | Error reply -> reply
          | Ok () -> (
              match Session.feed s ~colors ~counts with
              | Ok (Session.Accepted { accepted; buffered }) ->
                  Wire.Fed { session; accepted; buffered }
              | Ok (Session.Shed_reply { shed; buffered; limit }) ->
                  Wire.Shed { session; shed; buffered; limit }
              | Ok (Session.Policed { color; offered; allowance }) ->
                  Option.iter
                    (fun gate ->
                      Admission.note_policed gate
                        ~jobs:(Array.fold_left ( + ) 0 counts))
                    m.m_admission;
                  Wire.Admission_reject
                    { session; color; demand = offered; supply = allowance;
                      message =
                        Printf.sprintf
                          "feed: color %d over the declared envelope: \
                           cumulative %d jobs against an allowance of %d \
                           through the current round"
                          color offered allowance }
              | Error message -> Wire.Error_frame { message }))
  | Wire.Step { session; rounds } ->
      with_session m session (fun s ->
          match Session.step s ~rounds with
          | Ok r ->
              (* Crash durability: persist the snapshot when this step
                 crossed a checkpoint boundary. Autosave failure must
                 not fail the step — log and carry on; the epoch
                 re-arms so the next boundary retries. *)
              (if m.m_autosnap then
                 match m.m_snap_dir with
                 | None -> ()
                 | Some dir -> (
                     let path =
                       Filename.concat dir (snapshot_filename session)
                     in
                     match Session.autosave s ~path with
                     | true ->
                         Slog.debug ~event:"autosnap"
                           [
                             ("session", session);
                             ("round", Slog.int r.Session.sr_round);
                           ]
                     | false -> ()
                     | exception e ->
                         Slog.warn ~event:"autosnap_failed"
                           [
                             ("session", session);
                             ("exn", Printexc.to_string e);
                           ]));
              Wire.Stepped
                {
                  session;
                  round = r.Session.sr_round;
                  pending = r.sr_pending;
                  cost = r.sr_cost;
                  reconfigs = r.sr_reconfigs;
                  drops = r.sr_drops;
                  execs = r.sr_execs;
                }
          | Error message -> Wire.Error_frame { message })
  | Wire.Stats { session } ->
      with_session m session (fun s ->
          let st = Session.stats s in
          Wire.Stats_ok
            {
              session;
              round = st.Session.st_round;
              pending = st.st_pending;
              buffered = st.st_buffered;
              fed = st.st_fed;
              accepted = st.st_accepted;
              shed = st.st_shed;
              execs = st.st_execs;
              drops = st.st_drops;
              reconfigs = st.st_reconfigs;
              failed = st.st_failed;
              cost = st.st_cost;
              wire =
                (match Event_loop.framing conn with
                | Wire.V1 -> 1
                | Wire.V2 -> 2);
              bytes_in = Event_loop.bytes_in conn;
              bytes_out = Event_loop.bytes_out conn;
            })
  | Wire.Snapshot { session; path } ->
      with_session m session (fun s -> (
          match path with
          | Some file -> (
              (* The client names a file, never a path: anything else
                 would let any connected peer write wherever the server
                 user can. Resolved inside snap_dir, like drains. *)
              if not (valid_session_name file) then
                err "invalid snapshot file name %S (want [A-Za-z0-9._-]+, \
                     not dot-led; saved inside the server's snapshot \
                     directory)" file
              else
                match m.m_snap_dir with
                | None ->
                    err "snapshot to file requires a server snapshot \
                         directory (--snap-dir)"
                | Some dir -> (
                    let path = Filename.concat dir file in
                    match Session.save s ~path with
                    | () ->
                        Wire.Snapshotted { session; path = Some path; doc = None }
                    | exception Sys_error message ->
                        Wire.Error_frame { message }))
          | None ->
              Wire.Snapshotted
                { session; path = None;
                  doc = Some (Session.snapshot s) }))
  | Wire.Close { session } -> (
      match Hashtbl.find_opt m.m_sessions session with
      | None -> err "no such session %S" session
      | Some s ->
          Hashtbl.remove m.m_sessions session;
          release_admission m ~session;
          (* A closed session must not resurrect from a stale drain
             snapshot at the next restart. *)
          Option.iter
            (fun dir ->
              let path = Filename.concat dir (snapshot_filename session) in
              try Sys.remove path with Sys_error _ -> ())
            m.m_snap_dir;
          (match Session.close s with
          | Ok cost -> Wire.Closed { session; cost }
          | Error message -> Wire.Error_frame { message }))
  | Wire.Metrics { slow } -> handle_metrics m ~slow
  | Wire.Hello_ok _ | Wire.Opened _ | Wire.Fed _ | Wire.Shed _
  | Wire.Stepped _ | Wire.Stats_ok _ | Wire.Snapshotted _ | Wire.Closed _
  | Wire.Metrics_ok _ | Wire.Error_frame _ | Wire.Admission_reject _ ->
      err "reply frames are not requests"

let handle_frame m conn frame =
  match frame with
  | Wire.Open
      { session; policy; delta; bounds; n; speed; horizon; queue_limit; decl }
    ->
      handle_open m ~session ~policy ~delta ~bounds ~n ~speed ~horizon
        ~queue_limit ~decl
  | frame -> Handler.Reply (reply_to m conn frame)

(* ---- server handle ---- *)

type t = {
  manager : manager;
  listen_fd : Unix.file_descr;
  stopping : bool Atomic.t;
  loop : unit Handler.state Event_loop.t;
  loop_domain : unit Domain.t;
  cleanup_socket : string option; (* unix socket path to unlink on stop *)
  metrics_fd : Unix.file_descr option;
  metrics_domain : unit Domain.t option;
  metrics_cleanup : string option;
}

let resolve_host = Net.resolve_host
let listen_socket = Net.listen_socket
let bound_port t = Net.port_of t.listen_fd
let bound_metrics_port t = Option.bind t.metrics_fd Net.port_of
let address_label = Net.address_label

(* ---- the OpenMetrics exposition listener ----

   A single domain serving one tiny HTTP/1.1 exchange per connection:
   read and discard the request head, write the full exposition, close.
   Scrapes are rare (seconds apart) and the registry fold is cheap, so
   one responder is plenty. The head is read straight off the fd within
   a fixed deadline and size, so a silent or endless peer costs at most
   [http_head_timeout_s] — never every later scrape, nor [stop]. The
   view itself is built on the event loop, which owns what it reads.
   Every wait is short and gives up once [stopping] is set, so [stop]
   can join the domain. *)

let http_head_timeout_s = 1.0
let http_head_max = 8 * 1024

(* Does [buf] up to [len] hold a blank line, the end of a request head? *)
let http_head_complete buf len =
  let blank_at i =
    (i < len && Bytes.get buf i = '\n')
    || (i + 1 < len && Bytes.get buf i = '\r' && Bytes.get buf (i + 1) = '\n')
  in
  let rec scan i =
    i < len && ((Bytes.get buf i = '\n' && blank_at (i + 1)) || scan (i + 1))
  in
  blank_at 0 || scan 0

(* Read the request head; false when the peer stalls past the deadline,
   sends more than [http_head_max] without ending it, or the server is
   stopping. EOF ends the head: answer what was asked. *)
let read_http_head stopping fd =
  let buf = Bytes.create http_head_max in
  let deadline = Unix.gettimeofday () +. http_head_timeout_s in
  let rec go len =
    let remaining = deadline -. Unix.gettimeofday () in
    if remaining <= 0. || len >= http_head_max || Atomic.get stopping then
      false
    else
      match Poll.wait_readable ~timeout:(Float.min remaining 0.2) fd with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go len
      | `Timeout -> go len
      | `Readable -> (
          match Unix.read fd buf len (http_head_max - len) with
          | 0 -> true
          | k -> http_head_complete buf (len + k) || go (len + k))
  in
  go 0

(* Run [read] on the loop and wait for its result: None past the head
   deadline or once the server is stopping. *)
let ask_loop loop stopping read =
  let result = Atomic.make None in
  Event_loop.post loop (fun () -> Atomic.set result (Some (read ())));
  let deadline = Unix.gettimeofday () +. http_head_timeout_s in
  let rec wait () =
    match Atomic.get result with
    | Some _ as answer -> answer
    | None when Atomic.get stopping || Unix.gettimeofday () > deadline -> None
    | None ->
        Unix.sleepf 0.001;
        wait ()
  in
  wait ()

let serve_metrics_http manager loop stopping fd =
  let answer client =
    if read_http_head stopping client then
      match ask_loop loop stopping (fun () -> metrics_registry manager) with
      | None -> ()
      | Some registry ->
          let response = Exposition.http_response (Exposition.render registry) in
          (* a peer that stops reading cannot hold the responder either *)
          Unix.setsockopt_float client Unix.SO_SNDTIMEO http_head_timeout_s;
          ignore
            (Unix.write_substring client response 0 (String.length response))
  in
  let rec loop () =
    if Atomic.get stopping then ()
    else
      match Poll.wait_readable ~timeout:0.2 fd with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
      | exception Unix.Unix_error _ -> ()
      | `Timeout -> loop ()
      | `Readable -> (
          match Unix.accept ~cloexec:true fd with
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
          | exception Unix.Unix_error _ ->
              if Atomic.get stopping then () else loop ()
          | client, _ ->
              (try answer client with Unix.Unix_error _ -> ());
              (try Unix.close client with Unix.Unix_error _ -> ());
              loop ())
  in
  loop ()

let restore_sessions manager =
  match manager.m_snap_dir with
  | None -> 0
  | Some dir when not (Sys.file_exists dir) -> 0
  | Some dir ->
      let files = Sys.readdir dir in
      Array.sort String.compare files;
      Array.fold_left
        (fun restored file ->
          if Filename.check_suffix file ".sess.jsonl" then begin
            let path = Filename.concat dir file in
            match
              Session.load ?trace_dir:manager.m_trace_dir
                ?checkpoint_every:manager.m_checkpoint_every ~path ()
            with
            | Ok session ->
                let name = Session.name session in
                (* The embedded name becomes the registry key, and later
                   close/drain build snap_dir paths from it — a crafted
                   snapshot must not smuggle in a path-escaping name. *)
                if not (valid_session_name name) then begin
                  Slog.error ~event:"restore_refused"
                    [ ("path", path); ("session", name);
                      ("reason", "path-unsafe session name") ];
                  Session.release session;
                  restored
                end
                else if not (Hashtbl.mem manager.m_sessions name) then begin
                  Hashtbl.add manager.m_sessions name session;
                  (* Snapshots persist the declaration but not the
                     policing flag (that is server policy, not session
                     state): re-arm it for this server's mode and put
                     the restored demand back on the gate's books —
                     unconditionally, since refusing an already-running
                     session is not an option. *)
                  (match Session.declaration session with
                  | None -> ()
                  | Some decl ->
                      let police =
                        match manager.m_admission with
                        | Some gate ->
                            Admission.mode gate = Admission.Enforce
                        | None -> false
                      in
                      Session.declare session ~decl ~police;
                      Option.iter
                        (fun gate ->
                          Admission.force_admit gate ~session:name
                            ~mjpr:(Admission.decl_mjpr decl))
                        manager.m_admission);
                  Slog.info ~event:"restored"
                    [ ("session", name); ("path", path) ];
                  restored + 1
                end
                else begin
                  Slog.error ~event:"restore_collision"
                    [ ("path", path); ("session", name) ];
                  Session.release session;
                  restored
                end
            | Error message ->
                Slog.error ~event:"restore_failed"
                  [ ("path", path); ("reason", message) ];
                restored
          end
          else restored)
        0 files

let start ?(restore = true) config =
  (* A client that disconnects before its reply is written must cost
     that connection, not the process: with SIGPIPE ignored, writes to
     a dead peer raise Unix_error (EPIPE), which the event loop and the
     metrics responder absorb. Unavailable on some platforms, hence the
     try. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  if config.checkpoint_every < 0 then
    failwith
      (Printf.sprintf "negative checkpoint interval %d" config.checkpoint_every);
  if config.slow_threshold_us < 0 then
    failwith
      (Printf.sprintf "negative slow-request threshold %d"
         config.slow_threshold_us);
  if config.slow_log < 0 then
    failwith (Printf.sprintf "negative slow-log capacity %d" config.slow_log);
  let admission_gate =
    match (config.admission, config.admission_mode) with
    | None, _ | _, Admission.Off -> None
    | Some spec, mode ->
        (* Supply = deployment size × speed, in milli-jobs/round. The
           spec's own [n] wins; a spec without one is sized to the
           analytic minimum for its declared workload. *)
        let n =
          match spec.Rrs_workload.Demand.n with
          | Some n -> n
          | None -> (
              match Rrs_analysis.Capacity.size spec with
              | Ok (n, _) -> n
              | Error reason ->
                  failwith
                    (Printf.sprintf
                       "admission spec cannot be sized (%s); give it an \
                        explicit \"n\"" reason))
        in
        let supply_mjpr = n * spec.Rrs_workload.Demand.speed * 1000 in
        Slog.info ~event:"admission"
          [ ("mode", Admission.mode_to_string mode);
            ("n", Slog.int n);
            ("supply_mjpr", Slog.int supply_mjpr) ];
        Some (Admission.create ~mode ~supply_mjpr)
  in
  let manager =
    {
      m_sessions = Hashtbl.create 16;
      m_opening = Hashtbl.create 4;
      m_queue_limit = config.queue_limit;
      m_trace_dir = config.trace_dir;
      m_snap_dir = config.snap_dir;
      m_checkpoint_every =
        (if config.checkpoint_every > 0 then Some config.checkpoint_every
         else None);
      m_metrics =
        Metrics.create ~slow_threshold_us:config.slow_threshold_us
          ~slow_capacity:config.slow_log ();
      m_autosnap = config.autosnap && config.snap_dir <> None;
      m_admission = admission_gate;
    }
  in
  Option.iter
    (fun dir -> if not (Sys.file_exists dir) then Unix.mkdir dir 0o755)
    config.snap_dir;
  Option.iter
    (fun dir -> if not (Sys.file_exists dir) then Unix.mkdir dir 0o755)
    config.trace_dir;
  let restored = if restore then restore_sessions manager else 0 in
  if restored > 0 then
    Slog.info ~event:"restore_done" [ ("sessions", Slog.int restored) ];
  let listen_fd, cleanup_socket = listen_socket config.address in
  let metrics_fd, metrics_cleanup =
    match config.metrics with
    | None -> (None, None)
    | Some address ->
        let fd, cleanup = listen_socket address in
        (Some fd, cleanup)
  in
  let stopping = Atomic.make false in
  let handler =
    {
      Handler.role = "server";
      id = config.server_id;
      max_wire = (if config.max_wire = 1 then 1 else 2);
      max_reply =
        (if config.max_reply > 0 then min config.max_reply Wire.max_frame
         else Wire.max_frame);
      metrics = manager.m_metrics;
      handle = handle_frame manager;
    }
  in
  let loop =
    Event_loop.create ~listen_fd ~stopping
      ~on_open:(fun () -> Handler.state handler ())
      ~handler:Handler.handle_event ()
  in
  let loop_domain = Domain.spawn (fun () -> Event_loop.run loop) in
  let metrics_domain =
    Option.map
      (fun fd ->
        Domain.spawn (fun () -> serve_metrics_http manager loop stopping fd))
      metrics_fd
  in
  Slog.info ~event:"serving"
    ([ ("address", address_label config.address) ]
    @
    match config.metrics with
    | None -> []
    | Some address -> [ ("metrics", address_label address) ]);
  {
    manager;
    listen_fd;
    stopping;
    loop;
    loop_domain;
    cleanup_socket;
    metrics_fd;
    metrics_domain;
    metrics_cleanup;
  }

(* After the loop domain is joined: the sessions are this domain's. *)
let drain_sessions t =
  let m = t.manager in
  List.fold_left
    (fun saved name ->
      let session = Hashtbl.find m.m_sessions name in
      let drained =
        match m.m_snap_dir with
        | None -> false
        | Some dir -> (
            let path = Filename.concat dir (snapshot_filename name) in
            match Session.save session ~path with
            | () ->
                Slog.info ~event:"drained" [ ("session", name); ("path", path) ];
                true
            | exception e ->
                Slog.error ~event:"drain_failed"
                  [ ("session", name); ("exn", Printexc.to_string e) ];
                false)
      in
      Session.release session;
      if drained then saved + 1 else saved)
    0 (session_names m)

let stop ?(drain = true) t =
  Atomic.set t.stopping true;
  (* The event loop owns the listen fd and every connection fd: waking
     it closes the listener, finishes in-flight requests, flushes
     replies and closes all connections before [run] returns. *)
  Event_loop.wake_loop t.loop;
  Option.iter
    (fun fd ->
      (try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
      try Unix.close fd with Unix.Unix_error _ -> ())
    t.metrics_fd;
  Domain.join t.loop_domain;
  Option.iter Domain.join t.metrics_domain;
  let drained = if drain then drain_sessions t else 0 in
  Hashtbl.reset t.manager.m_sessions;
  Option.iter (fun path -> try Sys.remove path with Sys_error _ -> ())
    t.cleanup_socket;
  Option.iter (fun path -> try Sys.remove path with Sys_error _ -> ())
    t.metrics_cleanup;
  drained

let stop_requested = Atomic.make false

let serve ?restore config =
  Atomic.set stop_requested false;
  let request_stop _signal = Atomic.set stop_requested true in
  let previous_term = Sys.signal Sys.sigterm (Sys.Signal_handle request_stop) in
  let previous_int = Sys.signal Sys.sigint (Sys.Signal_handle request_stop) in
  let t = start ?restore config in
  while not (Atomic.get stop_requested) do
    Unix.sleepf 0.1
  done;
  Slog.info ~event:"stopping" [ ("reason", "signal") ];
  let drained = stop ~drain:true t in
  Sys.set_signal Sys.sigterm previous_term;
  Sys.set_signal Sys.sigint previous_int;
  drained
