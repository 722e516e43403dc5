(* E22 — SLO-aware admission under offered overload.

   One deployment capacity spec (2 colors, rate 1/2 each, delta 2 ->
   sized n = 2, supply 2000 mjobs/round), one offered load far beyond
   it: 4 "good" sessions whose declarations are honest and jointly fill
   the supply exactly, 4 "bad" sessions each declaring 3/4+3/4
   jobs/round against their own n = 1 (analytically infeasible: they
   would drop their own jobs no matter what), and 1 late good session
   that is per-session feasible but over the aggregate budget.

   Run once with the gate enforcing and once with it off, driving every
   admitted session with exactly its declared token-bucket traffic:

   - enforcing: the 4 bad opens and the late open draw a typed
     admission_rejected naming the binding constraint and leave no
     session state; every admitted session finishes with zero drops;
     the headroom gauge reads 0 (supply fully promised).
   - off: everything is admitted; the bad sessions shed ~a third of
     their jobs as drops while the good sessions still hold at zero —
     the gate's refusals are exactly the sessions that would have
     degraded.

   Any deviation (a drop in an admitted enforce-mode session, a bad
   session NOT dropping ungated, a rejected open leaving state) fails
   the bench loudly. *)

module Server = Rrs_server.Server
module Client = Rrs_server.Client
module Wire = Rrs_server.Wire
module Admission = Rrs_server.Admission
module Json = Rrs_sim.Event_sink.Json
module Clock = Rrs_obs.Clock

let policy = "seq-edf"
let delta = 2
let bounds = [| 6; 6 |]
let colors = Array.length bounds
let rounds = 240

let fail format = Printf.ksprintf failwith format

(* The deployment capacity: 2 colors at 1/2 job/round each -> one
   resource per color, n = 2, supply 2000 mjobs/round. *)
let deployment () =
  match
    Rrs_workload.Demand.make ~name:"e22-deployment" ~n:2 ~delta ~speed:1
      (List.init colors (fun color ->
           { Rrs_workload.Demand.color; bound = bounds.(color); rate_num = 1;
             rate_den = 2; burst = 0 }))
  with
  | Ok spec -> spec
  | Error message -> fail "deployment spec: %s" message

type profile = {
  p_name : string;
  p_n : int;
  p_decl : Wire.decl;
  p_good : bool; (* honest, feasible, within its own n *)
}

let good name =
  { p_name = name; p_n = 2;
    p_decl = { Wire.d_rates = [| 1; 1 |]; d_den = 4; d_bursts = [||] };
    p_good = true }

let bad name =
  { p_name = name; p_n = 1;
    p_decl = { Wire.d_rates = [| 3; 3 |]; d_den = 4; d_bursts = [||] };
    p_good = false }

(* 4 good (4 x 500 = the whole supply), 4 bad, one late good that is
   per-session feasible but over the aggregate budget. *)
let offered =
  [ good "good-0"; good "good-1"; bad "bad-0"; bad "bad-1"; good "good-2";
    bad "bad-2"; good "good-3"; bad "bad-3"; good "late-good" ]

let call client frame =
  match Client.call client frame with
  | Ok reply -> reply
  | Error message -> fail "call: %s" message

(* Token-bucket arrivals of the declaration through round [r]:
   burst + floor ((r + 1) * num / den) per color — exactly the envelope
   the enforcing server polices, so honest traffic is never refused. *)
let request_at (decl : Wire.decl) r =
  let arrivals color =
    let cum r =
      if r < 0 then 0
      else
        (if Array.length decl.d_bursts = 0 then 0 else decl.d_bursts.(color))
        + ((r + 1) * decl.d_rates.(color) / decl.d_den)
    in
    cum r - cum (r - 1)
  in
  let pairs = ref [] in
  for color = colors - 1 downto 0 do
    let k = arrivals color in
    if k > 0 then pairs := (color, k) :: !pairs
  done;
  !pairs

type session_result = {
  s_admitted : bool;
  s_drops : int;
  s_execs : int;
  s_fed : int;
}

(* Try to open a session with its declaration. A rejected open must
   leave no session state behind. *)
let open_session client profile =
  let open_reply =
    call client
      (Wire.Open
         { session = profile.p_name; policy; delta; bounds; n = profile.p_n;
           speed = 1; horizon = 0; queue_limit = 0;
           decl = Some profile.p_decl })
  in
  match open_reply with
  | Wire.Admission_reject { session; message; _ } ->
      if session <> profile.p_name then
        fail "%s: reject names session %S" profile.p_name session;
      if String.length message = 0 then
        fail "%s: reject carries no constraint message" profile.p_name;
      (match call client (Wire.Stats { session = profile.p_name }) with
      | Wire.Error_frame _ -> ()
      | _ -> fail "%s: rejected open left session state" profile.p_name);
      false
  | Wire.Opened _ -> true
  | Wire.Error_frame { message } -> fail "%s: open: %s" profile.p_name message
  | _ -> fail "%s: unexpected reply to open" profile.p_name

(* Drive one admitted session through its declared traffic for [rounds]
   rounds (token-bucket exact, so the enforcing envelope never fires),
   leaving it open so its reservation stays charged against the
   deployment budget while later opens race for headroom. *)
let drive client profile =
  for r = 0 to rounds - 1 do
    (match request_at profile.p_decl r with
    | [] -> ()
    | pairs ->
        let colors_arr = Array.of_list (List.map fst pairs) in
        let counts_arr = Array.of_list (List.map snd pairs) in
        (match
           call client
             (Wire.Feed
                { session = profile.p_name; colors = colors_arr;
                  counts = counts_arr; decl = None })
         with
        | Wire.Fed _ -> ()
        | Wire.Admission_reject { message; _ } ->
            fail "%s: honest feed policed: %s" profile.p_name message
        | _ -> fail "%s: unexpected reply to feed" profile.p_name));
    match call client (Wire.Step { session = profile.p_name; rounds = 1 }) with
    | Wire.Stepped _ -> ()
    | _ -> fail "%s: unexpected reply to step" profile.p_name
  done

let finish client profile =
  let result =
    match call client (Wire.Stats { session = profile.p_name }) with
    | Wire.Stats_ok { fed; drops; execs; _ } ->
        { s_admitted = true; s_drops = drops; s_execs = execs; s_fed = fed }
    | _ -> fail "%s: stats reply was not stats_ok" profile.p_name
  in
  (match call client (Wire.Close { session = profile.p_name }) with
  | Wire.Closed _ -> ()
  | _ -> fail "%s: unexpected reply to close" profile.p_name);
  result

let metrics_gauge client name =
  match call client (Wire.Metrics { slow = 0 }) with
  | Wire.Metrics_ok { doc; _ } ->
      Json.opt_int_field (Json.parse_fields doc) name ~default:(-1)
  | _ -> fail "metrics: unexpected reply"

type mode_result = {
  m_mode : string;
  m_admitted : int;
  m_rejected : int;
  m_good_drops : int;
  m_bad_drops : int;
  m_execs : int;
  m_fed : int;
  m_headroom : int;
  m_wall : float;
}

let run_mode ~mode =
  let dir = Filename.temp_file "rrs-admission-bench" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let address = Server.Unix_socket (Filename.concat dir "sock") in
  let server =
    Server.start
      { (Server.default_config address) with
        admission = Some (deployment ()); admission_mode = mode }
  in
  Fun.protect
    ~finally:(fun () -> ignore (Server.stop ~drain:false server))
    (fun () ->
      let client = Client.connect address in
      let t0 = Clock.now_s () in
      (* All opens land before anything closes: every admitted session's
         reservation stays charged while later opens compete for the
         remaining headroom — the late over-budget open really does meet
         a full deployment. *)
      let opened = List.map (fun p -> (p, open_session client p)) offered in
      List.iter (fun (p, admitted) -> if admitted then drive client p) opened;
      (* Gauges read while the admitted set is still open, before close
         releases the reservations. *)
      let headroom =
        if mode = Admission.Off then -1
        else metrics_gauge client "admission_headroom_mjpr"
      in
      let rejected =
        if mode = Admission.Off then 0
        else metrics_gauge client "admission_rejected_total"
      in
      let results =
        List.map
          (fun (p, admitted) ->
            if admitted then (p, finish client p)
            else
              (p, { s_admitted = false; s_drops = 0; s_execs = 0; s_fed = 0 }))
          opened
      in
      let wall = Clock.elapsed_s t0 in
      Client.close client;
      let sum pred f =
        List.fold_left
          (fun acc (p, r) -> if pred p r then acc + f r else acc)
          0 results
      in
      {
        m_mode = Admission.mode_to_string mode;
        m_admitted = sum (fun _ r -> r.s_admitted) (fun _ -> 1);
        m_rejected = rejected;
        m_good_drops = sum (fun p r -> p.p_good && r.s_admitted) (fun r -> r.s_drops);
        m_bad_drops =
          sum (fun p r -> (not p.p_good) && r.s_admitted) (fun r -> r.s_drops);
        m_execs = sum (fun _ r -> r.s_admitted) (fun r -> r.s_execs);
        m_fed = sum (fun _ r -> r.s_admitted) (fun r -> r.s_fed);
        m_headroom = headroom;
        m_wall = wall;
      })

let check_expectations enforcing off =
  (* Enforcing: 4 good admitted; 4 infeasible + 1 over-budget rejected;
     admitted sessions drop nothing; the supply is fully promised. *)
  if enforcing.m_admitted <> 4 then
    fail "enforce admitted %d sessions, want 4" enforcing.m_admitted;
  if enforcing.m_rejected <> 5 then
    fail "enforce rejected %d opens, want 5" enforcing.m_rejected;
  if enforcing.m_good_drops <> 0 then
    fail "enforce: admitted sessions dropped %d job(s), want 0"
      enforcing.m_good_drops;
  (* Off: everything is admitted and the infeasible sessions degrade. *)
  if off.m_admitted <> List.length offered then
    fail "off admitted %d sessions, want %d" off.m_admitted
      (List.length offered);
  if off.m_bad_drops = 0 then
    fail "off: over-declared sessions dropped nothing — no overload?";
  if off.m_good_drops <> 0 then
    fail "off: good sessions dropped %d job(s), want 0 (sessions are \
          independent engines)"
      off.m_good_drops

let run ?json () =
  let enforcing = run_mode ~mode:Admission.Enforce in
  let off = run_mode ~mode:Admission.Off in
  check_expectations enforcing off;
  let table =
    Rrs_stats.Table.create
      ~title:
        (Printf.sprintf
           "E22 admission under overload (%d offered sessions, %d rounds, \
            policy %s)"
           (List.length offered) rounds policy)
      ~columns:
        [ "mode"; "admitted"; "rejected"; "good drops"; "bad drops"; "execs";
          "headroom" ]
  in
  List.iter
    (fun m ->
      Rrs_stats.Table.add_row table
        [
          m.m_mode;
          Rrs_stats.Table.cell_int m.m_admitted;
          Rrs_stats.Table.cell_int m.m_rejected;
          Rrs_stats.Table.cell_int m.m_good_drops;
          Rrs_stats.Table.cell_int m.m_bad_drops;
          Rrs_stats.Table.cell_int m.m_execs;
          Rrs_stats.Table.cell_int m.m_headroom;
        ])
    [ enforcing; off ];
  Rrs_stats.Table.print table;
  Option.iter
    (fun path ->
      let b =
        Rrs_stats.Bench_io.create ~tag:(Rrs_stats.Bench_io.tag_of_path path)
      in
      Rrs_stats.Bench_io.start_experiment b ~id:"E22"
        ~claim:
          "With the admission gate enforcing a capacity spec, opens whose \
           declared demand is infeasible for their own session or over the \
           deployment budget draw a typed admission_rejected (leaving no \
           session state) and every admitted session sustains its declared \
           load with zero drops; with the gate off, the same offered load \
           is accepted wholesale and the over-declared sessions degrade \
           into steady drops.";
      List.iter
        (fun m ->
          Rrs_stats.Bench_io.record b ~policy
            ~workload:(Printf.sprintf "admission-%s" m.m_mode)
            ~n:2 ~delta
            ~cost:(m.m_good_drops + m.m_bad_drops)
            ~reconfig_count:0
            ~drop_count:(m.m_good_drops + m.m_bad_drops)
            ~exec_count:m.m_execs ~wall_s:m.m_wall
            ~extras:
              [
                ("offered", List.length offered);
                ("admitted", m.m_admitted);
                ("rejected", m.m_rejected);
                ("good_drops", m.m_good_drops);
                ("bad_drops", m.m_bad_drops);
                ("fed", m.m_fed);
                ("headroom_mjpr", m.m_headroom);
                ("rounds", rounds);
              ]
            ())
        [ enforcing; off ];
      Rrs_stats.Bench_io.write b ~path;
      Format.eprintf "wrote %s@." path)
    json
