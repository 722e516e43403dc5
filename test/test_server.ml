(* Serving-layer tests: rrs-wire/1 codec round trips (every frame type,
   qcheck), channel framing, a malformed-input corpus against a live
   server (the connection and the sessions behind it must survive),
   admission control (shed accounting + conservation), Engine-vs-Stepper
   stream identity, and snapshot/restore equivalence (qcheck: a run
   interrupted at a random round and restored finishes with the same
   ledger, assignment and byte-identical event stream as the
   uninterrupted run). *)

module Instance = Rrs_sim.Instance
module Engine = Rrs_sim.Engine
module Ledger = Rrs_sim.Ledger
module Stepper = Rrs_sim.Stepper
module Event_sink = Rrs_sim.Event_sink
module Wire = Rrs_server.Wire
module Session = Rrs_server.Session
module Server = Rrs_server.Server
module Client = Rrs_server.Client
module Router = Rrs_server.Router
module Handler = Rrs_server.Handler
module H = Test_helpers

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let policy : (module Rrs_sim.Policy.POLICY) = (module Rrs_core.Policy_lru_edf)

let read_file path =
  In_channel.with_open_bin path In_channel.input_all

(* ---- wire codec: qcheck round trip over every frame type ---- *)

let gen_name =
  (* Session/policy strings, including characters the escaper must
     handle. *)
  QCheck2.Gen.(
    oneof
      [
        string_size ~gen:(char_range 'a' 'z') (int_range 1 12);
        return "s \"quoted\" \\ back";
        return "newline\nand\ttab";
        return "";
      ])

let gen_ints =
  QCheck2.Gen.(array_size (int_range 0 6) (int_range 0 1000))

let gen_opt_name = QCheck2.Gen.option gen_name

(* Half the generated Open/Feed frames carry a declaration — the wire
   extension is exercised alongside the pre-declaration shape. The /1
   encoding drops an all-zero burst array ([||]), so generate either
   empty or populated bursts and expect [||] back for empty. *)
let gen_decl : Wire.decl option QCheck2.Gen.t =
  QCheck2.Gen.(
    option
      (let* d_rates = array_size (int_range 1 6) (int_range 0 1000) in
       let* d_den = int_range 1 1000 in
       let* d_bursts =
         oneof
           [ return [||];
             array_size (int_range 1 6) (int_range 0 100) ]
       in
       return { Wire.d_rates; d_den; d_bursts }))

(* Every frame type, its int fields drawn from [gen_int]. *)
let gen_frame_with gen_int : Wire.frame QCheck2.Gen.t =
  QCheck2.Gen.(
    let* session = gen_name in
    let int = gen_int in
    oneof
      [
        (let* v = gen_name in
         return (Wire.Hello { client_version = v }));
        (let* policy = gen_name in
         let* delta = int and* n = int and* speed = int and* horizon = int in
         let* queue_limit = int and* bounds = gen_ints in
         let* decl = gen_decl in
         return
           (Wire.Open
              { session; policy; delta; bounds; n; speed; horizon;
                queue_limit; decl }));
        (let* colors = gen_ints and* counts = gen_ints in
         let* decl = gen_decl in
         return (Wire.Feed { session; colors; counts; decl }));
        (let* rounds = int in
         return (Wire.Step { session; rounds }));
        return (Wire.Stats { session });
        (let* path = gen_opt_name in
         return (Wire.Snapshot { session; path }));
        return (Wire.Close { session });
        (let* slow = int in
         return (Wire.Metrics { slow }));
        (let* v = gen_name in
         let* server = gen_name and* uptime_s = int in
         return (Wire.Hello_ok { server_version = v; server; uptime_s }));
        (let* round = int in
         return (Wire.Opened { session; round }));
        (let* accepted = int and* buffered = int in
         return (Wire.Fed { session; accepted; buffered }));
        (let* shed = int and* buffered = int and* limit = int in
         return (Wire.Shed { session; shed; buffered; limit }));
        (let* round = int and* pending = int and* cost = int in
         let* reconfigs = int and* drops = int and* execs = int in
         return
           (Wire.Stepped { session; round; pending; cost; reconfigs; drops; execs }));
        (let* round = int and* pending = int and* buffered = int in
         let* fed = int and* accepted = int and* shed = int in
         let* execs = int and* drops = int and* reconfigs = int in
         let* failed = int and* cost = int in
         let* wire = int and* bytes_in = int and* bytes_out = int in
         return
           (Wire.Stats_ok
              { session; round; pending; buffered; fed; accepted; shed; execs;
                drops; reconfigs; failed; cost; wire; bytes_in; bytes_out }));
        (let* path = gen_opt_name and* doc = gen_opt_name in
         return (Wire.Snapshotted { session; path; doc }));
        (let* doc = gen_name and* slow = gen_name in
         return (Wire.Metrics_ok { doc; slow }));
        (let* cost = int in
         return (Wire.Closed { session; cost }));
        (let* color = int_range (-1) 100 and* demand = int and* supply = int in
         let* message = gen_name in
         return (Wire.Admission_reject { session; color; demand; supply; message }));
        (let* message = gen_name in
         return (Wire.Error_frame { message }));
      ])

let gen_frame = gen_frame_with QCheck2.Gen.(int_range 0 100_000)

let prop_wire_roundtrip =
  QCheck2.Test.make ~name:"wire: decode (encode frame) = frame" ~count:500
    gen_frame (fun frame -> Wire.decode (Wire.encode frame) = Ok frame)

let show_result = function
  | Wire.Frame f -> "Frame " ^ Wire.encode f
  | Wire.Malformed m -> "Malformed " ^ m
  | Wire.Eof -> "Eof"

(* The incremental stream, fed in [chunks]-sized pieces (any leftover
   arrives as one final piece), drained after every feed. *)
let stream_results framing data chunks =
  let s = Wire.Stream.create framing in
  let acc = ref [] in
  let finished = ref false in
  let drain () =
    let continue = ref true in
    while !continue && not !finished do
      match Wire.Stream.next s with
      | None -> continue := false
      | Some Wire.Eof ->
          acc := Wire.Eof :: !acc;
          finished := true
      | Some res -> acc := res :: !acc
    done
  in
  let pos = ref 0 in
  let total = String.length data in
  let feed k =
    let k = min k (total - !pos) in
    if k > 0 then begin
      Wire.Stream.feed s (Bytes.unsafe_of_string data) !pos k;
      pos := !pos + k;
      drain ()
    end
  in
  List.iter feed chunks;
  feed (total - !pos);
  Wire.Stream.feed_eof s;
  drain ();
  if not !finished then failwith "stream did not reach EOF";
  if Wire.Stream.fed s <> total then failwith "Stream.fed miscounts";
  List.rev !acc

(* The same results handed out one per call ([Eof] once drained), with
   [data] fed in 64 KiB pieces — one read(2) of the event loop or
   [Client]. *)
let stream_reader ?(framing = Wire.V1) data =
  let chunk = 64 * 1024 in
  let pending =
    ref
      (stream_results framing data
         (List.init ((String.length data / chunk) + 1) (fun _ -> chunk)))
  in
  fun () ->
    match !pending with
    | [] -> Wire.Eof
    | result :: rest ->
        pending := rest;
        result

let prop_wire_framed_roundtrip =
  QCheck2.Test.make ~name:"wire: read (write frame) = frame through Wire.Stream"
    ~count:100 gen_frame (fun frame ->
      let next = stream_reader (Wire.to_wire Wire.V1 frame) in
      let result = next () in
      let eof = next () in
      result = Wire.Frame frame && eof = Wire.Eof)

let test_wire_malformed_lines () =
  let next =
    stream_reader
      (String.concat ""
         [
           "this is not a frame\n";
           "999 {\"type\":\"stats\",\"session\":\"s\"}\n";
           "{\"type\":\"stats\",\"session\":\"s\"}\n";
           "8 {\"a\":1}\n";
           Wire.frame_line (Wire.encode (Wire.Stats { session = "s" }));
         ])
  in
  let malformed = function Wire.Malformed _ -> true | _ -> false in
  check_bool "garbage words" true (malformed (next ()));
  check_bool "length mismatch" true (malformed (next ()));
  check_bool "missing prefix" true (malformed (next ()));
  check_bool "missing type" true (malformed (next ()));
  check_bool "still synced: valid frame after garbage" true
    (next () = Wire.Frame (Wire.Stats { session = "s" }));
  check_bool "eof" true (next () = Wire.Eof)

(* ---- session admission control ---- *)

let session_config ?(name = "t") () =
  { Stepper.name; delta = 3; bounds = [| 2; 3; 4 |]; n = 4; speed = 1;
    horizon = 0 }

let test_session_shed_and_conservation () =
  let session =
    match
      Session.create ~name:"shed" ~policy:"dlru-edf" ~queue_limit:5
        (session_config ())
    with
    | Ok s -> s
    | Error m -> Alcotest.fail m
  in
  (match Session.feed session ~colors:[| 0; 1 |] ~counts:[| 2; 2 |] with
  | Ok (Session.Accepted { accepted; buffered }) ->
      check "accepted" 4 accepted;
      check "buffered" 4 buffered
  | Ok _ -> Alcotest.fail "unexpected non-accept"
  | Error m -> Alcotest.fail m);
  (* 4 buffered + 2 > 5: the whole request is shed, nothing enqueued. *)
  (match Session.feed session ~colors:[| 2 |] ~counts:[| 2 |] with
  | Ok (Session.Shed_reply { shed; buffered; limit }) ->
      check "shed jobs" 2 shed;
      check "buffered unchanged" 4 buffered;
      check "limit" 5 limit
  | Ok _ -> Alcotest.fail "expected shed"
  | Error m -> Alcotest.fail m);
  (* A 1-job feed still fits. *)
  (match Session.feed session ~colors:[| 2 |] ~counts:[| 1 |] with
  | Ok (Session.Accepted { buffered; _ }) -> check "refilled" 5 buffered
  | _ -> Alcotest.fail "expected accept");
  (* An invalid feed is rejected outright and is not counted as fed. *)
  (match Session.feed session ~colors:[| 9 |] ~counts:[| 1 |] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected error for unknown color");
  (match Session.step session ~rounds:6 with
  | Ok _ -> ()
  | Error m -> Alcotest.fail m);
  let st = Session.stats session in
  check "fed = accepted + shed" st.Session.st_fed
    (st.Session.st_accepted + st.Session.st_shed);
  check "accepted conserved" st.Session.st_accepted
    (st.Session.st_execs + st.Session.st_drops + st.Session.st_pending
   + st.Session.st_buffered);
  check "shed total" 2 st.Session.st_shed;
  match Session.close session with
  | Ok _ -> ()
  | Error m -> Alcotest.fail m

(* Losing a close/close or close/release race must not raise out of the
   loser: the trace channel is closed exactly once. *)
let test_session_close_idempotent_trace () =
  let dir = Filename.temp_file "rrs_sess" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let session =
    match
      Session.create ~name:"twice" ~policy:"dlru-edf" ~trace_dir:dir
        (session_config ~name:"twice" ())
    with
    | Ok s -> s
    | Error m -> Alcotest.fail m
  in
  (match Session.step session ~rounds:2 with
  | Ok _ -> ()
  | Error m -> Alcotest.fail m);
  (match Session.close session with
  | Ok _ -> ()
  | Error m -> Alcotest.fail m);
  (* Second close: an Error reply (double finish), never an exception. *)
  (match Session.close session with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "second close must not succeed");
  (* Release after close: a no-op, never an exception. *)
  Session.release session

(* ---- engine over stepper: stream identity ---- *)

let trace_engine ?(policy = policy) ~n instance =
  let path = Filename.temp_file "rrs_engine" ".jsonl" in
  let channel = open_out path in
  let result =
    Engine.run ~sink:(Event_sink.Jsonl channel) ~n ~policy instance
  in
  close_out channel;
  (path, result)

let trace_stepper ~n instance =
  let path = Filename.temp_file "rrs_stepper" ".jsonl" in
  let channel = open_out path in
  let stepper =
    Stepper.create ~sink:(Event_sink.Jsonl channel) ~policy
      { Stepper.name = instance.Instance.name;
        delta = instance.Instance.delta; bounds = instance.Instance.bounds;
        n; speed = 1; horizon = instance.Instance.horizon }
  in
  for round = 0 to instance.Instance.horizon - 1 do
    Stepper.feed stepper instance.Instance.requests.(round);
    Stepper.step stepper
  done;
  let result = Stepper.finish stepper in
  close_out channel;
  (path, result)

let test_engine_stepper_identity () =
  let instance =
    Rrs_workload.Random_workloads.uniform ~seed:42 ~colors:6 ~delta:4
      ~bound_log_range:(0, 3) ~horizon:48 ~load:0.9 ~rate_limited:true ()
  in
  let engine_path, engine_result = trace_engine ~n:6 instance in
  let stepper_path, stepper_result = trace_stepper ~n:6 instance in
  check "same cost"
    (Ledger.total_cost engine_result.Engine.ledger)
    (Ledger.total_cost stepper_result.Stepper.ledger);
  check_string "byte-identical streams" (read_file engine_path)
    (read_file stepper_path);
  Sys.remove engine_path;
  Sys.remove stepper_path

(* Several feeds within one round must equal the one combined feed —
   the chunked buffer flattens in fed order before normalization. *)
let test_stepper_multi_feed_order () =
  let config =
    { Stepper.name = "chunks"; delta = 2; bounds = [| 2; 3; 4 |]; n = 4;
      speed = 1; horizon = 0 }
  in
  let chunked = Stepper.create ~policy config in
  Stepper.feed chunked [ (2, 1) ];
  Stepper.feed chunked [ (0, 2); (1, 1) ];
  Stepper.feed chunked [ (2, 3) ];
  let combined = Stepper.create ~policy config in
  Stepper.feed combined [ (2, 1); (0, 2); (1, 1); (2, 3) ];
  check "buffered jobs agree" (Stepper.buffered_jobs combined)
    (Stepper.buffered_jobs chunked);
  check_string "identical buffered snapshot line"
    (Stepper.snapshot combined) (Stepper.snapshot chunked);
  Stepper.step chunked;
  Stepper.step combined;
  check_string "identical state" (Stepper.snapshot combined)
    (Stepper.snapshot chunked);
  ignore (Stepper.finish chunked);
  ignore (Stepper.finish combined)

(* ---- snapshot / restore ---- *)

(* Restore [snapshot] (taken after round [cut - 1]) into a fresh sink
   and finish [instance] from there; the uninterrupted engine run must
   agree on ledger, assignment and the full event stream. *)
let resume_and_compare ~n ~cut instance snapshot =
  let full_path, full = trace_engine ~n instance in
  let resumed_path = Filename.temp_file "rrs_resumed" ".jsonl" in
  let channel = open_out resumed_path in
  let resumed =
    match
      Stepper.restore ~sink:(Event_sink.Jsonl channel) ~policy snapshot
    with
    | Ok stepper -> stepper
    | Error message -> Alcotest.failf "restore: %s" message
  in
  for round = cut to instance.Instance.horizon - 1 do
    Stepper.feed resumed instance.Instance.requests.(round);
    Stepper.step resumed
  done;
  let result = Stepper.finish resumed in
  close_out channel;
  let outcome =
    ( Ledger.total_cost full.Engine.ledger,
      Ledger.total_cost result.Stepper.ledger,
      full.Engine.final_assignment = result.Stepper.final_assignment,
      read_file full_path = read_file resumed_path )
  in
  Sys.remove full_path;
  Sys.remove resumed_path;
  outcome

(* Interrupt a streamed run at [cut], restore from the snapshot into a
   fresh sink, finish both; ledgers, assignments and the full event
   streams must agree. *)
let run_with_interruption ~n ~cut instance =
  let part_path = Filename.temp_file "rrs_part" ".jsonl" in
  let channel = open_out part_path in
  let config =
    { Stepper.name = instance.Instance.name; delta = instance.Instance.delta;
      bounds = instance.Instance.bounds; n; speed = 1;
      horizon = instance.Instance.horizon }
  in
  let stepper =
    Stepper.create ~sink:(Event_sink.Jsonl channel) ~policy config
  in
  for round = 0 to cut - 1 do
    Stepper.feed stepper instance.Instance.requests.(round);
    Stepper.step stepper
  done;
  let snapshot = Stepper.snapshot stepper in
  (* The interrupted process dies here: its stream is abandoned. *)
  close_out channel;
  Sys.remove part_path;
  resume_and_compare ~n ~cut instance snapshot

let midrun_instance () =
  Rrs_workload.Random_workloads.uniform ~seed:7 ~colors:5 ~delta:3
    ~bound_log_range:(0, 3) ~horizon:40 ~load:1.0 ~rate_limited:true ()

let check_resumed (full_cost, resumed_cost, same_assignment, same_stream) =
  check "same total cost" full_cost resumed_cost;
  check_bool "same final assignment" true same_assignment;
  check_bool "byte-identical stream after restore" true same_stream

let test_snapshot_restore_midrun () =
  check_resumed (run_with_interruption ~n:5 ~cut:17 (midrun_instance ()))

(* The legacy read path: a frozen rrs-snap/1 document of the same run,
   cut at the same round, resumes exactly as the live snapshot does. The
   live snapshot of a stepper that never checkpoints is that document
   line for line, but for the header's schema and one more field. *)
let test_frozen_v1_snapshot_resumes () =
  let instance = midrun_instance () in
  check_resumed
    (resume_and_compare ~n:5 ~cut:17 instance Snap_v1_fixtures.midrun);
  let stepper =
    Stepper.create ~policy
      { Stepper.name = instance.Instance.name; delta = instance.Instance.delta;
        bounds = instance.Instance.bounds; n = 5; speed = 1;
        horizon = instance.Instance.horizon }
  in
  for round = 0 to 16 do
    Stepper.feed stepper instance.Instance.requests.(round);
    Stepper.step stepper
  done;
  let live = Stepper.snapshot stepper in
  ignore (Stepper.finish stepper);
  match String.split_on_char '\n' Snap_v1_fixtures.midrun with
  | header :: body ->
      let header =
        "{\"schema\":\"rrs-snap/2\""
        ^ String.sub header 22 (String.length header - 23)
        ^ ",\"checkpoint_every\":0}"
      in
      check_string "/1 document + one header field" live
        (String.concat "\n" (header :: body))
  | [] -> Alcotest.fail "empty fixture"

let prop_snapshot_restore =
  QCheck2.Test.make
    ~name:"snapshot at a random round + restore = uninterrupted run"
    ~count:40
    QCheck2.Gen.(pair H.gen_rate_limited (int_bound 1_000_000))
    (fun (instance, cut_seed) ->
      let horizon = instance.Instance.horizon in
      QCheck2.assume (horizon > 1);
      let cut = 1 + (cut_seed mod (horizon - 1)) in
      let full_cost, resumed_cost, same_assignment, same_stream =
        run_with_interruption ~n:4 ~cut instance
      in
      full_cost = resumed_cost && same_assignment && same_stream)

(* ---- rrs-snap/2: checkpointed snapshot / restore ---- *)

(* As [run_with_interruption], but the interrupted stepper checkpoints
   every [checkpoint_every] rounds, so its snapshot is an [rrs-snap/2]
   document replaying only from the latest checkpoint. The restored
   stream then starts at that checkpoint: its header must equal the
   uninterrupted run's, a [restored] line carries the pre-checkpoint
   totals, and everything after it must be a byte-identical suffix of
   the uninterrupted stream. *)
let is_suffix ~of_:full suffix =
  let extra = List.length full - List.length suffix in
  extra >= 0 && List.filteri (fun i _ -> i >= extra) full = suffix

let restored_line line =
  String.length line >= 18 && String.sub line 0 18 = "{\"type\":\"restored\""

let run_with_interruption_v2 ?(policy = policy) ~n ~cut ~checkpoint_every
    instance =
  let full_path, full = trace_engine ~policy ~n instance in
  let config =
    { Stepper.name = instance.Instance.name; delta = instance.Instance.delta;
      bounds = instance.Instance.bounds; n; speed = 1;
      horizon = instance.Instance.horizon }
  in
  let stepper = Stepper.create ~checkpoint_every ~policy config in
  for round = 0 to cut - 1 do
    Stepper.feed stepper instance.Instance.requests.(round);
    Stepper.step stepper
  done;
  let snapshot = Stepper.snapshot stepper in
  let resumed_path = Filename.temp_file "rrs_resumed2" ".jsonl" in
  let channel = open_out resumed_path in
  let resumed =
    match
      Stepper.restore ~sink:(Event_sink.Jsonl channel) ~policy snapshot
    with
    | Ok stepper -> stepper
    | Error message -> Alcotest.failf "restore (/2): %s" message
  in
  for round = cut to instance.Instance.horizon - 1 do
    Stepper.feed resumed instance.Instance.requests.(round);
    Stepper.step resumed
  done;
  let result = Stepper.finish resumed in
  close_out channel;
  let stream_ok =
    let full_lines = String.split_on_char '\n' (read_file full_path) in
    match String.split_on_char '\n' (read_file resumed_path) with
    | header :: rest ->
        let rest =
          match rest with
          | marker :: tail when restored_line marker -> tail
          | tail -> tail (* no checkpoint yet: a full replay, no marker *)
        in
        header = List.hd full_lines && is_suffix ~of_:(List.tl full_lines) rest
    | [] -> false
  in
  let stats_differing =
    List.filter
      (fun key ->
        Rrs_core.Instrument.stat full.Engine.stats key
        <> Rrs_core.Instrument.stat result.Stepper.stats key)
      [ "timestamp_updates"; "super_epochs"; "wraps"; "epochs"; "edf_evictions";
        "lru_promotions" ]
  in
  let outcome =
    ( Ledger.total_cost full.Engine.ledger,
      Ledger.total_cost result.Stepper.ledger,
      full.Engine.final_assignment = result.Stepper.final_assignment,
      stream_ok,
      stats_differing )
  in
  Sys.remove full_path;
  Sys.remove resumed_path;
  outcome

let prop_snapshot_restore_v2 =
  QCheck2.Test.make
    ~name:
      "rrs-snap/2: checkpointed snapshot at a random round + restore = \
       uninterrupted run"
    ~count:40
    QCheck2.Gen.(
      triple H.gen_rate_limited (int_bound 1_000_000) (int_range 1 8))
    (fun (instance, cut_seed, checkpoint_every) ->
      let horizon = instance.Instance.horizon in
      QCheck2.assume (horizon > 1);
      let cut = 1 + (cut_seed mod (horizon - 1)) in
      let full_cost, resumed_cost, same_assignment, stream_ok, _ =
        run_with_interruption_v2 ~n:4 ~cut ~checkpoint_every instance
      in
      full_cost = resumed_cost && same_assignment && stream_ok)

(* The same property at the benchmark sweep's shape (up to 256 colors,
   n up to 64), where the cached sets hold many colors and their order
   matters, for every policy of the repository. *)
let prop_snapshot_restore_v2_sweep_shape =
  QCheck2.Test.make
    ~name:
      "rrs-snap/2: checkpointed snapshot + restore = uninterrupted run, \
       every policy at the sweep shape"
    ~count:10
    QCheck2.Gen.(
      triple H.gen_sweep_shape (int_bound 1_000_000) (int_range 1 16))
    (fun ((instance, n), cut_seed, checkpoint_every) ->
      let horizon = instance.Instance.horizon in
      let cut = 1 + (cut_seed mod (horizon - 1)) in
      List.for_all
        (fun (policy, _) ->
          let full_cost, resumed_cost, same_assignment, stream_ok, stats_differing =
            run_with_interruption_v2 ~policy ~n ~cut ~checkpoint_every instance
          in
          (* The policy stats too: a restore must not lose what the
             blob does not spell out (which colors wrapped since their
             last boundary, the super-epoch in progress). *)
          (stats_differing = []
          || QCheck2.Test.fail_reportf "%s resumed at round %d: stats %s differ"
               (let (module P : Rrs_sim.Policy.POLICY) = policy in
                P.name)
               cut
               (String.concat ", " stats_differing))
          && full_cost = resumed_cost && same_assignment && stream_ok)
        (H.policy_pairs instance))

(* Checkpointing compacts the replay base but must never perturb the
   run itself: same feeds, same events, byte for byte. *)
let test_checkpointing_does_not_perturb_stream () =
  let trace checkpoint_every =
    let path = Filename.temp_file "rrs_ck" ".jsonl" in
    let channel = open_out path in
    let stepper =
      Stepper.create ~checkpoint_every
        ~sink:(Event_sink.Jsonl channel) ~policy
        (session_config ~name:"ck" ())
    in
    for round = 0 to 29 do
      Stepper.feed stepper [ (round mod 3, 1 + (round mod 2)) ];
      Stepper.step stepper
    done;
    let result = Stepper.finish stepper in
    close_out channel;
    let text = read_file path in
    Sys.remove path;
    (text, Ledger.total_cost result.Stepper.ledger)
  in
  let plain, plain_cost = trace 0 in
  let checkpointed, checkpointed_cost = trace 4 in
  check "same cost" plain_cost checkpointed_cost;
  check_string "byte-identical streams" plain checkpointed

let test_checkpoint_compaction_bound () =
  let interval = 8 in
  let stepper =
    Stepper.create ~checkpoint_every:interval ~policy
      (session_config ~name:"bound" ())
  in
  let snap_early = ref 0 in
  for round = 0 to 99 do
    Stepper.feed stepper [ (round mod 3, 1) ];
    Stepper.step stepper;
    if round = 19 then snap_early := String.length (Stepper.snapshot stepper);
    if Stepper.history_rounds stepper > interval then
      Alcotest.failf "history grew to %d rounds (interval %d) at round %d"
        (Stepper.history_rounds stepper) interval (round + 1)
  done;
  check "base at the latest checkpoint" 96 (Stepper.base_round stepper);
  (* O(interval), not O(rounds): 5x the rounds, same ballpark bytes. *)
  let snap_late = String.length (Stepper.snapshot stepper) in
  check_bool "snapshot size stays flat" true (snap_late < 2 * !snap_early);
  ignore (Stepper.finish stepper)

(* serialize o deserialize is the identity for every registry policy
   (and the weighted Landlord): restoring a checkpointed snapshot and
   re-snapshotting it reproduces the document byte for byte, policy
   blob included. *)
let test_policy_blob_fixpoint () =
  let fixpoint (policy : (module Rrs_sim.Policy.POLICY)) =
    let (module P) = policy in
    let stepper =
      Stepper.create ~checkpoint_every:1 ~policy
        (session_config ~name:"fix" ())
    in
    for round = 0 to 11 do
      Stepper.feed stepper [ (round mod 3, 1 + (round mod 2)) ];
      Stepper.step stepper
    done;
    Stepper.feed stepper [ (1, 2) ];
    (* buffered jobs round-trip too *)
    let doc = Stepper.snapshot stepper in
    match Stepper.restore ~policy doc with
    | Error message -> Alcotest.failf "%s: restore: %s" P.name message
    | Ok restored ->
        check_string (P.name ^ ": snapshot fixpoint") doc
          (Stepper.snapshot restored)
  in
  List.iter fixpoint Rrs_core.Policies.all;
  fixpoint (Rrs_uniform.Landlord.policy ~drop_costs:[| 1; 2; 3 |])

let test_restore_rejects_tampering () =
  let stepper = Stepper.create ~policy (session_config ~name:"tamper" ())
  in
  Stepper.feed stepper [ (0, 2); (1, 1) ];
  Stepper.step stepper;
  Stepper.step stepper;
  let doc = Stepper.snapshot stepper in
  (* Corrupt the materialized counters: replay must detect the mismatch. *)
  let tampered =
    String.concat "\n"
      (List.map
         (fun line ->
           if String.length line > 24
              && String.sub line 0 24 = "{\"type\":\"check_counters\"" then
             "{\"type\":\"check_counters\",\"reconfigs\":9,\"failed\":0,\
              \"drops\":9,\"execs\":9,\"cost\":99}"
           else line)
         (String.split_on_char '\n' doc))
  in
  (match Stepper.restore ~policy tampered with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "tampered snapshot must not restore");
  match Stepper.restore ~policy "not a snapshot" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "garbage must not restore"

(* ---- live server: malformed corpus + session survival ---- *)

let with_server f =
  let dir = Filename.temp_file "rrs_srv" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let address = Server.Unix_socket (Filename.concat dir "sock") in
  let snap_dir = Filename.concat dir "snaps" in
  let config =
    { (Server.default_config address) with
      snap_dir = Some snap_dir }
  in
  let server = Server.start config in
  Fun.protect
    ~finally:(fun () -> ignore (Server.stop ~drain:false server))
    (fun () -> f ~address ~snap_dir)

let expect_ok = function
  | Ok (Wire.Error_frame { message }) -> Alcotest.failf "server error: %s" message
  | Ok frame -> frame
  | Error message -> Alcotest.fail message

(* [stats_ok] carries per-connection transport fields (negotiated wire
   version, server-side byte counts) that legitimately differ across
   connections, framings and even consecutive calls; zero them before
   comparing stats replies for session-semantic equality. *)
let normalize_stats = function
  | Wire.Stats_ok s -> Wire.Stats_ok { s with wire = 0; bytes_in = 0; bytes_out = 0 }
  | frame -> frame

let expect_error client = function
  | label -> (
      match Client.read_reply client with
      | Ok (Wire.Error_frame _) -> ()
      | Ok frame ->
          Alcotest.failf "%s: expected error, got %s" label (Wire.encode frame)
      | Error message -> Alcotest.failf "%s: %s" label message)

let malformed_corpus =
  [
    "complete garbage";
    "12";
    "";
    "-3 {}";
    "7 {\"typ\"";
    "999 {\"type\":\"stats\",\"session\":\"live\"}"; (* truncated frame *)
    "17 {\"type\":\"stats\"}"; (* missing required field *)
    "13 {\"type\":\"nope\"}"; (* unknown type *)
    "44 {\"type\":\"open\",\"session\":\"x\",\"policy\":\"dlru\"}";
    (* missing numeric fields *)
    "24 {\"type\":\"hello\",\"version\":1}"; (* wrong field type *)
  ]

let test_server_survives_malformed () =
  with_server (fun ~address ~snap_dir ->
      let client = Client.connect address in
      (* Wrong version: an [error] reply, not a disconnect. *)
      (match Client.call client (Wire.Hello { client_version = "rrs-wire/0" }) with
      | Ok (Wire.Error_frame _) -> ()
      | other ->
          Alcotest.failf "wrong version accepted: %s"
            (match other with Ok f -> Wire.encode f | Error e -> e));
      (match
         expect_ok
           (Client.call client (Wire.Hello { client_version = Wire.version }))
       with
      | Wire.Hello_ok _ -> ()
      | f -> Alcotest.failf "unexpected hello reply %s" (Wire.encode f));
      (match
         expect_ok
           (Client.call client
              (Wire.Open
                 { session = "live"; policy = "dlru"; delta = 2;
                   bounds = [| 2; 3 |]; n = 3; speed = 1; horizon = 0;
                   queue_limit = 0; decl = None }))
       with
      | Wire.Opened _ -> ()
      | f -> Alcotest.failf "unexpected open reply %s" (Wire.encode f));
      ignore
        (expect_ok
           (Client.call client
              (Wire.Feed { session = "live"; colors = [| 0 |]; counts = [| 3 |]; decl = None })));
      ignore (expect_ok (Client.call client (Wire.Step { session = "live"; rounds = 1 })));
      let stats_before =
        match expect_ok (Client.call client (Wire.Stats { session = "live" })) with
        | Wire.Stats_ok _ as s -> s
        | f -> Alcotest.failf "unexpected stats reply %s" (Wire.encode f)
      in
      (* The whole corpus: every line answered with [error], connection
         and session intact. *)
      List.iter
        (fun line ->
          Client.send_raw client line;
          expect_error client line)
        malformed_corpus;
      (* Protocol-level misuse (well-formed frames) also answers error. *)
      Client.send client (Wire.Stats { session = "no-such" });
      expect_error client "unknown session";
      Client.send client (Wire.Opened { session = "x"; round = 0 });
      expect_error client "reply frame as request";
      Client.send client
        (Wire.Open
           { session = "../evil"; policy = "dlru"; delta = 2;
             bounds = [| 2 |]; n = 1; speed = 1; horizon = 0; queue_limit = 0;
             decl = None });
      expect_error client "path-unsafe session name";
      (* Snapshot-to-file is confined to the server's snapshot
         directory: anything but a bare path-safe file name is refused. *)
      Client.send client
        (Wire.Snapshot { session = "live"; path = Some "../evil.sess.jsonl" });
      expect_error client "path-escaping snapshot file name";
      Client.send client
        (Wire.Snapshot { session = "live"; path = Some "/tmp/evil.sess.jsonl" });
      expect_error client "absolute snapshot path";
      (match
         expect_ok
           (Client.call client
              (Wire.Snapshot { session = "live"; path = Some "manual.snap" }))
       with
      | Wire.Snapshotted { path = Some path; _ } ->
          check_string "resolved inside snap_dir"
            (Filename.concat snap_dir "manual.snap") path;
          check_bool "snapshot file written" true (Sys.file_exists path)
      | f -> Alcotest.failf "unexpected snapshot reply %s" (Wire.encode f));
      (* The session is unharmed: same stats as before the corpus. *)
      let stats_after =
        expect_ok (Client.call client (Wire.Stats { session = "live" }))
      in
      check_string "session unharmed by corpus"
        (Wire.encode (normalize_stats stats_before))
        (Wire.encode (normalize_stats stats_after));
      (match expect_ok (Client.call client (Wire.Step { session = "live"; rounds = 2 })) with
      | Wire.Stepped { round; _ } -> check "still stepping" 3 round
      | f -> Alcotest.failf "unexpected step reply %s" (Wire.encode f));
      (match expect_ok (Client.call client (Wire.Close { session = "live" })) with
      | Wire.Closed _ -> ()
      | f -> Alcotest.failf "unexpected close reply %s" (Wire.encode f));
      Client.close client)

(* ---- live server: drain to disk + restore continues the ledger ---- *)

let feed_step client session colors counts =
  ignore (expect_ok (Client.call client (Wire.Feed { session; colors; counts; decl = None })));
  match expect_ok (Client.call client (Wire.Step { session; rounds = 1 })) with
  | Wire.Stepped _ -> ()
  | f -> Alcotest.failf "unexpected step reply %s" (Wire.encode f)

let test_server_drain_restore () =
  let dir = Filename.temp_file "rrs_drain" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let address = Server.Unix_socket (Filename.concat dir "sock") in
  let config =
    { (Server.default_config address) with
      snap_dir = Some (Filename.concat dir "snaps") }
  in
  (* Uninterrupted reference: same feeds against one server lifetime. *)
  let reference =
    with_server (fun ~address ~snap_dir:_ ->
        let client = Client.connect address in
        ignore
          (expect_ok
             (Client.call client
                (Wire.Open
                   { session = "d"; policy = "dlru-edf"; delta = 3;
                     bounds = [| 2; 2; 4 |]; n = 4; speed = 1; horizon = 0;
                     queue_limit = 0; decl = None })));
        feed_step client "d" [| 0; 1 |] [| 3; 2 |];
        feed_step client "d" [| 2 |] [| 4 |];
        feed_step client "d" [| 0; 2 |] [| 1; 2 |];
        feed_step client "d" [||] [||];
        let stats = expect_ok (Client.call client (Wire.Stats { session = "d" })) in
        Client.close client;
        Wire.encode (normalize_stats stats))
  in
  (* Interrupted: two server processes around a drain. *)
  let server1 = Server.start config in
  let client = Client.connect address in
  ignore
    (expect_ok
       (Client.call client
          (Wire.Open
             { session = "d"; policy = "dlru-edf"; delta = 3;
               bounds = [| 2; 2; 4 |]; n = 4; speed = 1; horizon = 0;
               queue_limit = 0; decl = None })));
  feed_step client "d" [| 0; 1 |] [| 3; 2 |];
  feed_step client "d" [| 2 |] [| 4 |];
  Client.close client;
  check "one session drained" 1 (Server.stop ~drain:true server1);
  let server2 = Server.start config in
  let client = Client.connect address in
  feed_step client "d" [| 0; 2 |] [| 1; 2 |];
  feed_step client "d" [||] [||];
  let stats = expect_ok (Client.call client (Wire.Stats { session = "d" })) in
  (* Closing deletes the drain snapshot; a second close is "no such
     session", not an internal error. *)
  (match expect_ok (Client.call client (Wire.Close { session = "d" })) with
  | Wire.Closed _ -> ()
  | f -> Alcotest.failf "unexpected close reply %s" (Wire.encode f));
  Client.send client (Wire.Close { session = "d" });
  expect_error client "double close";
  Client.close client;
  check_bool "closed session leaves no snapshot" false
    (Sys.file_exists
       (Filename.concat (Filename.concat dir "snaps") "d.sess.jsonl"));
  check "nothing left to drain" 0 (Server.stop ~drain:true server2);
  (* A restart after the close must not resurrect the session from a
     stale snapshot. *)
  let server3 = Server.start config in
  let client = Client.connect address in
  Client.send client (Wire.Stats { session = "d" });
  expect_error client "closed session resurrected after restart";
  Client.close client;
  ignore (Server.stop ~drain:false server3);
  check_string "ledger continues across restart" reference
    (Wire.encode (normalize_stats stats))

(* ---- rrs-wire/2: binary codec, resync, negotiation ---- *)

let contains ~needle haystack =
  let n = String.length needle and h = String.length haystack in
  let rec go i =
    i + n <= h && (String.sub haystack i n = needle || go (i + 1))
  in
  go 0

let prop_wire2_roundtrip =
  QCheck2.Test.make
    ~name:"wire/2: decode_binary (encode_binary frame) = frame" ~count:500
    gen_frame (fun frame ->
      Wire.decode_binary (Wire.encode_binary frame) = Ok frame)

let prop_wire2_framed_roundtrip =
  QCheck2.Test.make
    ~name:"wire/2: read (write frame) = frame through Wire.Stream" ~count:100
    gen_frame (fun frame ->
      let next =
        stream_reader ~framing:Wire.V2 (Wire.to_wire Wire.V2 frame)
      in
      let result = next () in
      let eof = next () in
      result = Wire.Frame frame && eof = Wire.Eof)

let test_wire2_garbage_resync () =
  let stats = Wire.Stats { session = "s" } in
  let next =
    stream_reader ~framing:Wire.V2
      (String.concat ""
         [
           "textual garbage line\n";
           (* resync at the newline *)
           "x";
           (* resync right before the magic pair, no newline in between *)
           Wire.encode_binary stats;
           Wire.encode_binary stats;
           "trailing junk";
         ])
  in
  let malformed = function Wire.Malformed _ -> true | _ -> false in
  check_bool "garbage line" true (malformed (next ()));
  check_bool "garbage before magic" true (malformed (next ()));
  check_bool "first frame after resync" true (next () = Wire.Frame stats);
  check_bool "second frame" true (next () = Wire.Frame stats);
  check_bool "trailing garbage" true (malformed (next ()));
  check_bool "eof" true (next () = Wire.Eof);
  (* A frame truncated mid-payload is EOF, not a stall or a crash. *)
  let whole = Wire.encode_binary stats in
  let next =
    stream_reader ~framing:Wire.V2
      (String.sub whole 0 (String.length whole - 3))
  in
  check_bool "truncated frame is eof" true (next () = Wire.Eof)

(* [payload] behind a /2 header with a matching length. *)
let binary_frame ~tag payload =
  let n = String.length payload in
  let header = Bytes.create 7 in
  Bytes.set header 0 '\xF2';
  Bytes.set header 1 'R';
  Bytes.set header 2 (Char.chr ((n lsr 24) land 0xff));
  Bytes.set header 3 (Char.chr ((n lsr 16) land 0xff));
  Bytes.set header 4 (Char.chr ((n lsr 8) land 0xff));
  Bytes.set header 5 (Char.chr (n land 0xff));
  Bytes.set header 6 (Char.chr tag);
  Bytes.to_string header ^ payload

(* ---- forward compatibility, both framings ----

   The declaration extension rides on exactly these rules, so pin them:
   /1 decoders ignore unknown JSON fields on known frames (a future
   sender is understood, minus its extras) and answer unknown types with
   a per-frame error; /2 decoders answer unknown tags and unexpected
   trailing bytes with a per-frame error and resynchronize at the next
   magic pair — never a desync or a crash. *)
let test_wire_forward_compat () =
  (* /1: unknown extra fields on a known frame are tolerated. *)
  (match
     Wire.decode
       "{\"type\":\"step\",\"session\":\"s\",\"rounds\":2,\
        \"future_knob\":7,\"note\":\"x\"}"
   with
  | Ok (Wire.Step { session = "s"; rounds = 2 }) -> ()
  | Ok f -> Alcotest.failf "extras changed the frame: %s" (Wire.encode f)
  | Error m -> Alcotest.failf "/1 extras rejected: %s" m);
  (* /1: the declaration is keyed on rate_den — with it, declared; a
     stray "rates" alone reads as one more unknown extra. *)
  let open_json decl_fields =
    "{\"type\":\"open\",\"session\":\"s\",\"policy\":\"dlru\",\"delta\":2,\
     \"bounds\":[4],\"n\":1,\"speed\":1,\"horizon\":0,\"queue_limit\":0"
    ^ decl_fields ^ "}"
  in
  (match Wire.decode (open_json ",\"rates\":[3],\"rate_den\":4,\"bursts\":[2]") with
  | Ok (Wire.Open { decl = Some { d_rates = [| 3 |]; d_den = 4; d_bursts = [| 2 |] }; _ })
    -> ()
  | Ok f -> Alcotest.failf "declared open misread: %s" (Wire.encode f)
  | Error m -> Alcotest.failf "declared open rejected: %s" m);
  (match Wire.decode (open_json ",\"rates\":[3]") with
  | Ok (Wire.Open { decl = None; _ }) -> ()
  | Ok f -> Alcotest.failf "rates without rate_den misread: %s" (Wire.encode f)
  | Error m -> Alcotest.failf "stray rates rejected: %s" m);
  (* /1: unknown type answers an error, not a crash. *)
  (match Wire.decode "{\"type\":\"frobnicate\",\"session\":\"s\"}" with
  | Error _ -> ()
  | Ok f -> Alcotest.failf "unknown type accepted: %s" (Wire.encode f));
  (* /2: an unknown tag is a clean per-frame error... *)
  let stats = Wire.Stats { session = "s" } in
  let encoded = Wire.encode_binary stats in
  let retagged = Bytes.of_string encoded in
  Bytes.set retagged 6 '\x63' (* tag 99 *);
  (match Wire.decode_binary (Bytes.to_string retagged) with
  | Error m -> check_bool "names the tag" true (contains ~needle:"99" m)
  | Ok f -> Alcotest.failf "unknown tag accepted: %s" (Wire.encode f));
  (* ...and the stream parser steps over it to the next frame. *)
  let next =
    stream_reader ~framing:Wire.V2
      (Bytes.to_string retagged ^ Wire.encode_binary stats)
  in
  (match next () with
  | Wire.Malformed _ -> ()
  | Wire.Frame f -> Alcotest.failf "unknown tag read as %s" (Wire.encode f)
  | Wire.Eof -> Alcotest.fail "unknown tag read as eof");
  check_bool "resynced on the next frame" true (next () = Wire.Frame stats);
  (* /2: trailing bytes after a complete payload are refused — on a
     frame with no extension point... *)
  let with_trailing frame junk =
    let whole = Wire.encode_binary frame in
    binary_frame ~tag:(Char.code whole.[6])
      (String.sub whole 7 (String.length whole - 7) ^ junk)
  in
  (match Wire.decode_binary (with_trailing stats "\x00") with
  | Error m -> check_bool "trailing named" true (contains ~needle:"trailing" m)
  | Ok f -> Alcotest.failf "trailing bytes accepted: %s" (Wire.encode f));
  (* ...and on the frames with the optional declaration group, where
     junk that is not a valid group is refused rather than guessed at. *)
  let undeclared =
    Wire.Open
      { session = "s"; policy = "dlru"; delta = 2; bounds = [| 4 |]; n = 1;
        speed = 1; horizon = 0; queue_limit = 0; decl = None }
  in
  match Wire.decode_binary (with_trailing undeclared "\x00") with
  | Error _ -> ()
  | Ok f -> Alcotest.failf "junk read as a declaration: %s" (Wire.encode f)

(* A payload bigger than one 64 KiB read exercises a frame completed
   across several feeds. *)
let test_wire2_large_frame () =
  let colors = Array.init 20_000 (fun i -> i land 0xffff) in
  let counts = Array.init 20_000 (fun i -> i * 7 land 0xffff) in
  let frame = Wire.Feed { session = "big"; colors; counts; decl = None } in
  let encoded = Wire.encode_binary frame in
  check_bool "payload exceeds one reader chunk" true
    (String.length encoded > 64 * 1024);
  check_bool "decodes in memory" true (Wire.decode_binary encoded = Ok frame);
  let next =
    stream_reader ~framing:Wire.V2
      (Wire.to_wire Wire.V2 frame
      ^ Wire.to_wire Wire.V2 (Wire.Stats { session = "after" }))
  in
  check_bool "large frame round trips" true (next () = Wire.Frame frame);
  check_bool "reader still synced after it" true
    (next () = Wire.Frame (Wire.Stats { session = "after" }));
  check_bool "eof" true (next () = Wire.Eof)

(* ---- golden bytes: every frame type, both framings ---- *)

let hex_of s =
  String.concat " "
    (List.init (String.length s) (fun i ->
         Printf.sprintf "%02x" (Char.code s.[i])))

(* The round-trip properties would still pass if the bytes changed the
   same way in both directions; the frozen fixtures would not. *)
let test_wire_golden_bytes () =
  List.iter
    (fun (frame, line, hex) ->
      check_string "/1 line" (line ^ "\n") (Wire.to_wire Wire.V1 frame);
      check_string ("/2 bytes of " ^ line) hex
        (hex_of (Wire.to_wire Wire.V2 frame));
      check_bool ("/1 decodes " ^ line) true
        (stream_results Wire.V1 (line ^ "\n") []
        = [ Wire.Frame frame; Wire.Eof ]);
      check_bool ("/2 decodes " ^ line) true
        (Wire.decode_binary (Wire.to_wire Wire.V2 frame) = Ok frame))
    Wire_fixtures.frames;
  let tags =
    List.sort_uniq compare
      (List.map (fun (_, _, hex) -> String.sub hex 18 2) Wire_fixtures.frames)
  in
  check "every frame type has fixtures" 19 (List.length tags);
  List.iter
    (fun (json, frame) ->
      check_bool ("defaults of " ^ json) true (Wire.decode json = Ok frame))
    Wire_fixtures.defaulted

(* The metrics request kinds come from the schema's request frames; the
   names and their order are the Prometheus labels, so pin them. *)
let test_metrics_kinds_follow_schema () =
  let module Metrics = Rrs_server.Metrics in
  let module Json = Rrs_sim.Event_sink.Json in
  check_string "kinds" "hello open feed step stats snapshot close metrics error"
    (String.concat " " (Array.to_list Metrics.kinds));
  List.iter
    (fun (frame, line, _) ->
      let name = Json.str_field (Json.parse_fields (Wire.encode frame)) "type" in
      let expected = if Array.mem name Metrics.kinds then name else "error" in
      check_string line expected (Metrics.kind_name (Metrics.kind_index frame)))
    Wire_fixtures.frames

(* ---- hostile input: the decoders are total ---- *)

(* A stats frame whose session length is max_int: the sum of cursor and
   length overflows, so a naive bounds check passes. *)
let overflowing_stats = binary_frame ~tag:5 "\xFE\xFF\xFF\xFF\xFF\xFF\xFF\xFF\x7F"

(* Arbitrary bytes, and valid frames of either framing with a few bytes
   overwritten, inserted or cut, or the /2 tag replaced. Most /2 mutants
   get their length header fixed up, so the damage reaches the payload
   decoder instead of the header check. Insertions include the 9-byte
   varints of max_int and min_int and a 10-byte varint. *)
let gen_hostile =
  let open QCheck2.Gen in
  let splices =
    [ "\xFE\xFF\xFF\xFF\xFF\xFF\xFF\xFF\x7F";
      "\xFF\xFF\xFF\xFF\xFF\xFF\xFF\xFF\x7F";
      "\x80\x80\x80\x80\x80\x80\x80\x80\x80\x01"; "\x01"; "\x00" ]
  in
  let edit s (kind, pos, piece) =
    let len = String.length s in
    let pos = pos mod (len + 1) in
    match kind with
    | 0 when pos < len ->
        String.sub s 0 pos ^ String.make 1 piece.[0]
        ^ String.sub s (pos + 1) (len - pos - 1)
    | 1 -> String.sub s 0 pos ^ piece ^ String.sub s pos (len - pos)
    | 2 -> String.sub s 0 pos
    | 3 when len > 6 ->
        String.sub s 0 6 ^ String.make 1 (Char.chr (pos land 31))
        ^ String.sub s 7 (len - 7)
    | _ -> s
  in
  let mutate s =
    let* edits =
      list_size (int_range 1 3)
        (triple (int_range 0 3)
           (frequency [ (1, nat); (2, int_range 7 12) ])
           (frequency
              [ (1, map (String.make 1) char); (2, oneofl splices) ]))
    in
    return (List.fold_left edit s edits)
  in
  let fix_length s =
    if String.length s >= 7 && s.[0] = '\xF2' && s.[1] = 'R' then
      binary_frame ~tag:(Char.code s.[6])
        (String.sub s 7 (String.length s - 7))
    else s
  in
  let frame =
    gen_frame_with
      (frequency
         [ (2, int_range (-1000) 1000); (1, oneofl [ min_int; max_int ]);
           (1, int) ])
  in
  frequency
    [
      (1, string_size ~gen:char (int_range 0 64));
      (1, frame >>= fun f -> mutate (Wire.encode f));
      (1, frame >>= fun f -> mutate (Wire.to_wire Wire.V1 f));
      ( 4,
        let* f = frame in
        let* s = mutate (Wire.encode_binary f) in
        let* fix = frequency [ (3, return true); (1, return false) ] in
        return (if fix then fix_length s else s) );
    ]

let prop_decoders_total =
  QCheck2.Test.make ~name:"wire: decoders never raise on hostile bytes"
    ~count:3000 ~print:hex_of gen_hostile (fun s ->
      ignore (Wire.decode s);
      ignore (Wire.decode_binary s);
      ignore (stream_results Wire.V1 s [ 5 ]);
      ignore (stream_results Wire.V2 s [ 5 ]);
      true)

(* A 63-bit int takes at most 9 varint bytes; a continuation bit on the
   9th is refused instead of shifting bits off the top. *)
let test_wire2_varint_bounds () =
  let step varint = binary_frame ~tag:4 ("\x04s1" ^ varint) in
  let refused label data =
    match Wire.decode_binary data with
    | Error m ->
        check_bool (label ^ ": " ^ m) true (contains ~needle:"varint too long" m)
    | Ok f -> Alcotest.failf "%s decoded as %s" label (Wire.encode f)
  in
  refused "10-byte zero" (step "\x80\x80\x80\x80\x80\x80\x80\x80\x80\x01");
  refused "10-byte one" (step "\x82\x80\x80\x80\x80\x80\x80\x80\x80\x7F");
  check_bool "9-byte max_int" true
    (Wire.decode_binary (step "\xFE\xFF\xFF\xFF\xFF\xFF\xFF\xFF\x7F")
    = Ok (Wire.Step { session = "s1"; rounds = max_int }));
  List.iter
    (fun rounds ->
      let frame = Wire.Step { session = "s1"; rounds } in
      check_bool "/1 extreme round trip" true
        (Wire.decode (Wire.encode frame) = Ok frame);
      check_bool "/2 extreme round trip" true
        (Wire.decode_binary (Wire.encode_binary frame) = Ok frame))
    [ min_int; max_int ];
  match Wire.decode_binary overflowing_stats with
  | Error m -> check_bool m true (contains ~needle:"bad string length" m)
  | Ok f -> Alcotest.failf "overflowing length decoded as %s" (Wire.encode f)

(* ---- regression: Session.save must not leave its temp file behind ---- *)

let test_session_save_failure_cleans_tmp () =
  let dir = Filename.temp_file "rrs_save" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  (* Renaming a file onto an existing directory fails, after the
     document was already written to the temp file. *)
  let target = Filename.concat dir "snap.sess.jsonl" in
  Unix.mkdir target 0o700;
  let session =
    match
      Session.create ~name:"savefail" ~policy:"dlru-edf"
        (session_config ~name:"savefail" ())
    with
    | Ok s -> s
    | Error m -> Alcotest.fail m
  in
  (match Session.save session ~path:target with
  | () -> Alcotest.fail "save onto a directory must fail"
  | exception Sys_error _ -> ());
  Alcotest.(check (list string))
    "temp file removed on failure" [ "snap.sess.jsonl" ]
    (Array.to_list (Sys.readdir dir));
  Session.release session

(* ---- regression: restore validates embedded names, first snapshot
   wins a collision ---- *)

let make_session ?(rounds = 0) name =
  match
    Session.create ~name ~policy:"dlru-edf" (session_config ~name ())
  with
  | Error m -> Alcotest.fail m
  | Ok s ->
      if rounds > 0 then
        (match Session.step s ~rounds with
        | Ok _ -> ()
        | Error m -> Alcotest.fail m);
      s

let test_restore_validates_names () =
  let dir = Filename.temp_file "rrs_restore" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let snaps = Filename.concat dir "snaps" in
  Unix.mkdir snaps 0o700;
  (* A snapshot whose embedded session name escapes the directory: the
     file name is innocuous, the name inside is not. *)
  let evil = make_session "../escape" in
  Session.save evil ~path:(Filename.concat snaps "aaa-evil.sess.jsonl");
  Session.release evil;
  (* Two snapshots claiming the same name at different rounds: the
     first in file order must win, deterministically. *)
  let dup1 = make_session ~rounds:1 "dup" in
  Session.save dup1 ~path:(Filename.concat snaps "d1.sess.jsonl");
  Session.release dup1;
  let dup2 = make_session ~rounds:3 "dup" in
  Session.save dup2 ~path:(Filename.concat snaps "d2.sess.jsonl");
  Session.release dup2;
  let good = make_session ~rounds:1 "good" in
  Session.save good ~path:(Filename.concat snaps "good.sess.jsonl");
  Session.release good;
  let address = Server.Unix_socket (Filename.concat dir "sock") in
  let config =
    { (Server.default_config address) with
      snap_dir = Some snaps }
  in
  let server = Server.start config in
  Fun.protect
    ~finally:(fun () -> ignore (Server.stop ~drain:false server))
    (fun () ->
      let client = Client.connect address in
      Client.send client (Wire.Stats { session = "../escape" });
      expect_error client "path-unsafe restored name must not register";
      (match expect_ok (Client.call client (Wire.Stats { session = "dup" })) with
      | Wire.Stats_ok { round; _ } -> check "first snapshot wins" 1 round
      | f -> Alcotest.failf "unexpected stats reply %s" (Wire.encode f));
      (match expect_ok (Client.call client (Wire.Stats { session = "good" })) with
      | Wire.Stats_ok { round; _ } -> check "valid snapshot restored" 1 round
      | f -> Alcotest.failf "unexpected stats reply %s" (Wire.encode f));
      Client.close client)

(* ---- regression: a session snapshot whose declared snap_version
   disagrees with the embedded stepper document schema is corrupt (a
   spliced or hand-edited file) and must not restore ---- *)

let test_restore_rejects_mixed_versions () =
  let body_v2 =
    let stepper =
      Stepper.create ~checkpoint_every:2 ~policy
        (session_config ~name:"mix" ())
    in
    Stepper.feed stepper [ (0, 2); (1, 1) ];
    for _ = 1 to 4 do
      Stepper.step stepper
    done;
    Stepper.snapshot stepper
  in
  (* Nothing writes /1 any more: the same session, frozen. *)
  let body_v1 = Snap_v1_fixtures.session_body in
  let header ?snap_version () =
    let version =
      match snap_version with
      | None -> ""
      | Some v -> Printf.sprintf ",\"snap_version\":%d" v
    in
    Printf.sprintf
      "{\"schema\":\"rrs-sess/1\",\"session\":\"mix\",\"policy\":\"dlru-edf\",\
       \"queue_limit\":16,\"fed\":3,\"shed\":0%s}"
      version
  in
  let mixed reason header body =
    match Session.restore (header ^ "\n" ^ body) with
    | Error _ -> ()
    | Ok s ->
        Session.release s;
        Alcotest.failf "%s must not restore" reason
  in
  mixed "an undeclared (/1) header over a /2 body" (header ()) body_v2;
  mixed "a declared /1 header over a /2 body" (header ~snap_version:1 ())
    body_v2;
  mixed "a declared /2 header over a /1 body" (header ~snap_version:2 ())
    body_v1;
  (* The consistent pairings still restore. *)
  (match Session.restore (header ~snap_version:1 () ^ "\n" ^ body_v1) with
  | Ok s -> Session.release s
  | Error m -> Alcotest.failf "consistent /1 pairing: %s" m);
  match Session.restore (header ~snap_version:2 () ^ "\n" ^ body_v2) with
  | Ok s -> Session.release s
  | Error m -> Alcotest.failf "consistent /2 pairing: %s" m

(* A session file written before rrs-snap/2 (no [snap_version] field,
   rrs-snap/1 body) restores upgraded: it gets the default checkpoint
   interval, and what it writes next is /2. *)
let test_frozen_v1_session_upgrades () =
  let doc =
    Snap_v1_fixtures.session_header ^ "\n" ^ Snap_v1_fixtures.session_body
  in
  match Session.restore doc with
  | Error m -> Alcotest.failf "pre-/2 session file: %s" m
  | Ok s ->
      check "upgraded to the default interval"
        Session.default_checkpoint_every (Session.checkpoint_every s);
      let next = Session.snapshot s in
      Session.release s;
      let header, body =
        match String.index_opt next '\n' with
        | Some i ->
            (String.sub next 0 i,
             String.sub next (i + 1) (String.length next - i - 1))
        | None -> Alcotest.fail "session snapshot without a body"
      in
      check_bool "header declares snap_version 2" true
        (contains ~needle:"\"snap_version\":2" header);
      check_bool "body is rrs-snap/2" true
        (String.starts_with ~prefix:"{\"schema\":\"rrs-snap/2\"" body);
      check_bool "body carries the default interval" true
        (contains
           ~needle:
             (Printf.sprintf "\"checkpoint_every\":%d"
                Session.default_checkpoint_every)
           body);
      (* The upgraded document is itself a restore fixpoint. *)
      (match Session.restore next with
      | Ok again ->
          check_string "upgraded snapshot fixpoint" next
            (Session.snapshot again);
          Session.release again
      | Error m -> Alcotest.failf "upgraded snapshot: %s" m)

(* ---- regression: a checkpoint naming a color that does not exist is
   refused, not installed ---- *)

let test_restore_refuses_unknown_base_color () =
  (* Idle rounds with a checkpoint every round: the base is the current
     round, so the forged assignment is never replayed away and the
     cross-check alone cannot catch it. *)
  let stepper =
    Stepper.create ~checkpoint_every:1 ~policy
      { (session_config ~name:"forged" ()) with n = 2 }
  in
  for _ = 1 to 3 do
    Stepper.step stepper
  done;
  let doc = Stepper.snapshot stepper in
  ignore (Stepper.finish stepper);
  let forge ~base ~check =
    String.split_on_char '\n' doc
    |> List.map (fun line ->
           if String.starts_with ~prefix:"{\"type\":\"base_assignment\"" line
           then
             Printf.sprintf "{\"type\":\"base_assignment\",\"colors\":%s}" base
           else if
             String.starts_with ~prefix:"{\"type\":\"check_assignment\"" line
           then
             Printf.sprintf "{\"type\":\"check_assignment\",\"colors\":%s}"
               check
           else line)
    |> String.concat "\n"
  in
  (match Stepper.restore ~policy doc with
  | Ok _ -> ()
  | Error m -> Alcotest.failf "unforged document: %s" m);
  List.iter
    (fun (base, check) ->
      match Stepper.restore ~policy (forge ~base ~check) with
      | Error m ->
          check_bool ("error names base_assignment: " ^ m) true
            (contains ~needle:"base_assignment" m)
      | Ok _ ->
          Alcotest.failf "base_assignment %s restored with 3 colors" base)
    [ ("[99,99]", "[99,99]"); ("[3,-1]", "[3,-1]"); ("[-2,-1]", "[-1,-1]") ]

(* ---- regression: concurrent saves of one path ----

   Two domains save different documents to one path in a loop (a
   stepper snapshot and a session snapshot, the two durable writers the
   server runs concurrently) while the main domain reads it. Every save
   returns, every read sees one whole document, and no temp file is
   left behind. *)

let test_concurrent_saves_never_tear () =
  let dir = Filename.temp_file "rrs_race" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let path = Filename.concat dir "race.sess.jsonl" in
  let stepper =
    Stepper.create ~checkpoint_every:4 ~policy (session_config ~name:"a" ())
  in
  for round = 0 to 9 do
    Stepper.feed stepper [ (round mod 3, 1) ];
    Stepper.step stepper
  done;
  let session =
    match
      Session.create ~name:"b" ~policy:"dlru-edf" (session_config ~name:"b" ())
    with
    | Ok s -> s
    | Error m -> Alcotest.fail m
  in
  let doc_a = Stepper.snapshot stepper and doc_b = Session.snapshot session in
  Stepper.save stepper ~path;
  let saves = 300 in
  let running = Atomic.make 2 in
  let writer save =
    Domain.spawn (fun () ->
        let failed = ref 0 in
        for _ = 1 to saves do
          match save () with () -> () | exception _ -> incr failed
        done;
        Atomic.decr running;
        !failed)
  in
  let a = writer (fun () -> Stepper.save stepper ~path) in
  let b = writer (fun () -> Session.save session ~path) in
  let torn = ref 0 in
  let whole () =
    match read_file path with
    | text -> text = doc_a || text = doc_b
    | exception Sys_error _ -> false
  in
  while Atomic.get running > 0 do
    if not (whole ()) then incr torn
  done;
  let failed = Domain.join a + Domain.join b in
  check "failed saves" 0 failed;
  check "torn reads" 0 !torn;
  check_bool "final document whole" true (whole ());
  Alcotest.(check (list string))
    "no temp file left" [ "race.sess.jsonl" ]
    (Array.to_list (Sys.readdir dir));
  ignore (Stepper.finish stepper);
  Session.release session;
  Sys.remove path;
  Unix.rmdir dir

(* ---- regression: unresolvable TCP hosts fail cleanly ---- *)

let test_unknown_host () =
  (match Server.resolve_host "127.0.0.1" with
  | Ok _ -> ()
  | Error m -> Alcotest.fail m);
  let bad = "no-such-host.invalid" in
  (match Server.resolve_host bad with
  | Error message ->
      check_bool "resolver error names the host" true
        (contains ~needle:bad message)
  | Ok _ -> Alcotest.failf "resolved reserved name %s" bad);
  (match Server.start (Server.default_config (Server.Tcp (bad, 0))) with
  | _server -> Alcotest.fail "started a server on an unresolvable host"
  | exception Failure message ->
      check_bool "serve failure names the host" true
        (contains ~needle:bad message));
  match Client.connect (Server.Tcp (bad, 1)) with
  | _client -> Alcotest.fail "connected to an unresolvable host"
  | exception Failure message ->
      check_bool "connect failure names the host" true
        (contains ~needle:bad message)

(* ---- regression: open constructs its session outside the manager
   lock ---- *)

(* The trace file of session "slow" is a FIFO with no reader, so the
   server's [open_out] inside [Session.create] blocks until the test
   attaches one. A second connection opening an unrelated session must
   still be served meanwhile — before the fix, construction ran under
   the manager mutex and every other connection stalled behind it. *)
let test_open_constructs_outside_lock () =
  let dir = Filename.temp_file "rrs_lock" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let traces = Filename.concat dir "traces" in
  Unix.mkdir traces 0o700;
  let fifo = Filename.concat traces "slow.events.jsonl" in
  Unix.mkfifo fifo 0o600;
  let sock = Filename.concat dir "sock" in
  let address = Server.Unix_socket sock in
  let config =
    { (Server.default_config address) with
      trace_dir = Some traces }
  in
  let server = Server.start config in
  let fifo_reader = ref None in
  let open_frame session =
    Wire.Open
      { session; policy = "dlru-edf"; delta = 3; bounds = [| 2; 3; 4 |];
        n = 4; speed = 1; horizon = 0; queue_limit = 0; decl = None }
  in
  Fun.protect
    ~finally:(fun () ->
      (* Attach a FIFO reader first: if the server is (buggily) still
         blocked inside the open, [stop] would never join its worker. *)
      if !fifo_reader = None then
        (try
           fifo_reader :=
             Some (Unix.openfile fifo [ Unix.O_RDONLY; Unix.O_NONBLOCK ] 0)
         with Unix.Unix_error _ -> ());
      ignore (Server.stop ~drain:false server);
      Option.iter
        (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
        !fifo_reader)
    (fun () ->
      let a = Client.connect address in
      Client.send a (open_frame "slow");
      (* Let connection A reach the blocking trace-file open. *)
      Unix.sleepf 0.2;
      let fd_b = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect fd_b (Unix.ADDR_UNIX sock);
      let b = Client.connect_fd fd_b in
      Client.send b (open_frame "fast");
      (match Unix.select [ fd_b ] [] [] 10.0 with
      | [], _, _ ->
          Alcotest.fail
            "opening one session stalled every other connection \
             (session constructed under the manager lock)"
      | _ -> ());
      (match expect_ok (Client.read_reply b) with
      | Wire.Opened { session = "fast"; _ } -> ()
      | f -> Alcotest.failf "unexpected open reply %s" (Wire.encode f));
      (* Unblock A and check its open completes normally. *)
      fifo_reader :=
        Some (Unix.openfile fifo [ Unix.O_RDONLY; Unix.O_NONBLOCK ] 0);
      (match expect_ok (Client.read_reply a) with
      | Wire.Opened { session = "slow"; _ } -> ()
      | f -> Alcotest.failf "unexpected open reply %s" (Wire.encode f));
      Client.close a;
      Client.close b)

(* ---- live server: /2 negotiation, resync, and /1-vs-/2 equality ---- *)

let open_frame_for session =
  Wire.Open
    { session; policy = "dlru-edf"; delta = 3; bounds = [| 2; 3; 4 |]; n = 4;
      speed = 1; horizon = 0; queue_limit = 6; decl = None }

(* A stop without drain releases every session: its trace is flushed,
   ends with an [aborted] record and is closed. Before, the session
   table was reset without a release and the trace file stayed empty. *)
let test_stop_without_drain_ends_traces () =
  let dir = Filename.temp_file "rrs_nodrain" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let traces = Filename.concat dir "traces" in
  Unix.mkdir traces 0o700;
  let address = Server.Unix_socket (Filename.concat dir "sock") in
  let server =
    Server.start { (Server.default_config address) with trace_dir = Some traces }
  in
  let stopped = ref false in
  Fun.protect
    ~finally:(fun () -> if not !stopped then ignore (Server.stop ~drain:false server))
    (fun () ->
      let client = Client.connect address in
      ignore (expect_ok (Client.call client (open_frame_for "t")));
      ignore
        (expect_ok
           (Client.call client
              (Wire.Feed { session = "t"; colors = [| 0; 2 |]; counts = [| 2; 1 |]; decl = None })));
      (match expect_ok (Client.call client (Wire.Step { session = "t"; rounds = 3 })) with
      | Wire.Stepped _ -> ()
      | f -> Alcotest.failf "unexpected step reply %s" (Wire.encode f));
      Client.close client;
      stopped := true;
      check "nothing drained" 0 (Server.stop ~drain:false server));
  let lines =
    read_file (Filename.concat traces "t.events.jsonl")
    |> String.split_on_char '\n'
    |> List.filter (fun line -> line <> "")
  in
  check_bool "trace is not empty" true (lines <> []);
  let last = List.nth lines (List.length lines - 1) in
  check_bool
    (Printf.sprintf "trace ends with an aborted record: %s" last)
    true
    (contains ~needle:{|"type":"aborted"|} last)

let test_wire2_live_negotiation () =
  with_server (fun ~address ~snap_dir:_ ->
      let client = Client.connect address in
      check "starts at /1" 1 (Client.wire_version client);
      (match Client.negotiate client ~wire:2 with
      | Ok () -> ()
      | Error m -> Alcotest.fail m);
      check "negotiated /2" 2 (Client.wire_version client);
      ignore (expect_ok (Client.call client (open_frame_for "v2")));
      feed_step client "v2" [| 0 |] [| 2 |];
      let before =
        expect_ok (Client.call client (Wire.Stats { session = "v2" }))
      in
      (* Textual garbage on a binary connection: answered with [error],
         resynchronized at the newline. *)
      Client.send_raw client "complete garbage";
      expect_error client "textual garbage on /2";
      Client.send_raw client "999 {\"type\":\"stats\",\"session\":\"v2\"}";
      expect_error client "/1 frame on a /2 connection";
      let after =
        expect_ok (Client.call client (Wire.Stats { session = "v2" }))
      in
      check_string "session unharmed by garbage"
        (Wire.encode (normalize_stats before))
        (Wire.encode (normalize_stats after));
      (* hello over the binary framing re-states the version. *)
      (match
         expect_ok
           (Client.call client (Wire.Hello { client_version = Wire.version2 }))
       with
      | Wire.Hello_ok { server_version; _ } ->
          check_string "still /2" Wire.version2 server_version
      | f -> Alcotest.failf "unexpected hello reply %s" (Wire.encode f));
      (match expect_ok (Client.call client (Wire.Close { session = "v2" })) with
      | Wire.Closed _ -> ()
      | f -> Alcotest.failf "unexpected close reply %s" (Wire.encode f));
      Client.close client)

let test_server_pinned_to_wire1 () =
  let dir = Filename.temp_file "rrs_pin" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let address = Server.Unix_socket (Filename.concat dir "sock") in
  let config =
    { (Server.default_config address) with max_wire = 1 }
  in
  let server = Server.start config in
  Fun.protect
    ~finally:(fun () -> ignore (Server.stop ~drain:false server))
    (fun () ->
      let client = Client.connect address in
      (match Client.negotiate client ~wire:2 with
      | Error message ->
          check_bool "refusal names the supported version" true
            (contains ~needle:Wire.version message)
      | Ok () -> Alcotest.fail "a max_wire=1 server accepted /2");
      check "still /1" 1 (Client.wire_version client);
      (* The refusal is an [error] reply, not a disconnect. *)
      (match
         expect_ok
           (Client.call client (Wire.Hello { client_version = Wire.version }))
       with
      | Wire.Hello_ok _ -> ()
      | f -> Alcotest.failf "unexpected hello reply %s" (Wire.encode f));
      Client.close client)

(* One crafted /2 frame must draw an [error] and leave the server whole:
   its other connections served, new ones accepted, and [stop] draining
   the open sessions. *)
let test_hostile_wire2_frame_live () =
  let dir = Filename.temp_file "rrs_hostile" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let path = Filename.concat dir "sock" in
  let address = Server.Unix_socket path in
  let snap_dir = Filename.concat dir "snaps" in
  let config =
    { (Server.default_config address) with
      snap_dir = Some snap_dir }
  in
  (* No [Fun.protect] around [stop]: a wedged event loop holds the lock
     that [stop] needs, so a failing check leaves the server to the
     process exit instead of hanging the suite. *)
  let server = Server.start config in
  let bystander = Client.connect address in
  ignore (expect_ok (Client.call bystander (open_frame_for "w")));
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  let hostile = Client.connect_fd fd in
  (match Client.negotiate hostile ~wire:2 with
  | Ok () -> ()
  | Error m -> Alcotest.fail m);
  let sent =
    Unix.write_substring fd overflowing_stats 0 (String.length overflowing_stats)
  in
  check "crafted frame sent" (String.length overflowing_stats) sent;
  (match Client.read_reply ~deadline_ms:3000 hostile with
  | Ok (Wire.Error_frame _) -> ()
  | Ok f -> Alcotest.failf "crafted frame answered %s" (Wire.encode f)
  | Error m -> Alcotest.failf "crafted frame: %s" m);
  let stats client =
    match Client.call ~deadline_ms:3000 client (Wire.Stats { session = "w" }) with
    | Ok (Wire.Stats_ok _) -> ()
    | Ok f -> Alcotest.failf "stats answered %s" (Wire.encode f)
    | Error m -> Alcotest.failf "stats: %s" m
  in
  stats bystander;
  let fresh = Client.connect address in
  stats fresh;
  List.iter Client.close [ fresh; hostile; bystander ];
  check "stop drains the open session" 1 (Server.stop server);
  check "drained to the snapshot directory" 1
    (Array.length (Sys.readdir snap_dir))

(* The same script through a /1 and a /2 connection must produce the
   same replies frame for frame (the framing changes the bytes, never
   the semantics) — and strictly fewer wire bytes under /2. *)
let test_wire_equality_across_framings () =
  with_server (fun ~address ~snap_dir:_ ->
      let script client =
        let replies = ref [] in
        let call frame =
          replies := normalize_stats (expect_ok (Client.call client frame)) :: !replies
        in
        call (open_frame_for "eq");
        call (Wire.Feed { session = "eq"; colors = [| 0; 1 |]; counts = [| 3; 2 |]; decl = None });
        call (Wire.Step { session = "eq"; rounds = 2 });
        (* 9 jobs against queue_limit 6: a shed reply. *)
        call (Wire.Feed { session = "eq"; colors = [| 2 |]; counts = [| 9 |]; decl = None });
        call (Wire.Stats { session = "eq" });
        call (Wire.Close { session = "eq" });
        List.rev_map Wire.encode !replies
      in
      let c1 = Client.connect address in
      let replies1 = script c1 in
      let v1_bytes = Client.bytes_sent c1 + Client.bytes_received c1 in
      Client.close c1;
      let c2 = Client.connect address in
      (match Client.negotiate c2 ~wire:2 with
      | Ok () -> ()
      | Error m -> Alcotest.fail m);
      let replies2 = script c2 in
      let v2_bytes = Client.bytes_sent c2 + Client.bytes_received c2 in
      Client.close c2;
      Alcotest.(check (list string))
        "identical replies across framings" replies1 replies2;
      (* v2 even pays for an extra hello exchange and still wins. *)
      check_bool "binary framing moved fewer bytes" true (v2_bytes < v1_bytes))

(* ---- regression: oversize replies answer a clean error ---- *)

(* Why the server must guard its replies: the wire writer happily emits
   a frame larger than [Wire.max_frame], but no parser will ever accept
   it — the peer sees [Malformed], not its snapshot. *)
let test_wire_overlong_frame_unreceivable () =
  let doc = String.make Wire.max_frame 'x' in
  let frame = Wire.Snapshotted { session = "s"; path = None; doc = Some doc } in
  List.iter
    (fun framing ->
      let next = stream_reader ~framing (Wire.to_wire framing frame) in
      match next () with
      | Wire.Malformed _ -> ()
      | Wire.Frame _ -> Alcotest.fail "a reader accepted an over-long frame"
      | Wire.Eof -> Alcotest.fail "over-long frame read as eof")
    [ Wire.V1; Wire.V2 ]

(* The shared reply cap ([Handler.reply_bytes]), which the router also
   applies: a reply within the cap passes byte-identical, one over it
   becomes an [error] naming both sizes — in either framing. A /2 reply
   that fits exactly re-encodes past the same cap in /1, which is why a
   /1 front must cap what its /2 shards return. *)
let test_reply_cap_both_framings () =
  let small = Wire.Stats { session = "s" } in
  let big =
    Wire.Snapshotted
      { session = "s"; path = None; doc = Some (String.make 500 'x') }
  in
  let cap = String.length (Wire.to_wire Wire.V2 big) in
  check_bool "the /1 encoding is the larger one" true
    (String.length (Wire.to_wire Wire.V1 big) > cap);
  List.iter
    (fun framing ->
      check_string "a small reply passes unchanged" (Wire.to_wire framing small)
        (Handler.reply_bytes ~max_reply:cap framing small);
      let capped = Handler.reply_bytes ~max_reply:(cap - 1) framing big in
      match stream_reader ~framing capped () with
      | Wire.Frame (Wire.Error_frame { message }) ->
          check_bool "names the limit" true
            (contains ~needle:(Printf.sprintf "the %d-byte frame limit" (cap - 1))
               message);
          check_bool "names the reply size" true
            (contains
               ~needle:
                 (Printf.sprintf "reply frame of %d bytes"
                    (String.length (Wire.to_wire framing big)))
               message)
      | other -> Alcotest.failf "capped reply parsed as %s" (show_result other))
    [ Wire.V1; Wire.V2 ];
  check_string "a /2 reply at the cap passes" (Wire.to_wire Wire.V2 big)
    (Handler.reply_bytes ~max_reply:cap Wire.V2 big);
  match stream_reader (Handler.reply_bytes ~max_reply:cap Wire.V1 big) () with
  | Wire.Frame (Wire.Error_frame _) -> ()
  | other -> Alcotest.failf "/1 re-encoding slipped the cap: %s" (show_result other)

(* A [max_reply] cap small enough to trip with a few rounds of history:
   the inline snapshot answers an [error] naming the limit, the
   connection stays framed and synced, and snapshot-to-file still
   works — that path never goes through a reply frame. *)
let test_oversize_inline_snapshot_reply () =
  let dir = Filename.temp_file "rrs_big" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let address = Server.Unix_socket (Filename.concat dir "sock") in
  let snaps = Filename.concat dir "snaps" in
  let config =
    { (Server.default_config address) with max_reply = 2048;
      snap_dir = Some snaps }
  in
  let server = Server.start config in
  Fun.protect
    ~finally:(fun () -> ignore (Server.stop ~drain:false server))
    (fun () ->
      let client = Client.connect address in
      ignore (expect_ok (Client.call client (open_frame_for "big")));
      for _ = 1 to 80 do
        feed_step client "big" [| 0; 1; 2 |] [| 1; 1; 1 |]
      done;
      (match
         Client.call client (Wire.Snapshot { session = "big"; path = None })
       with
      | Ok (Wire.Error_frame { message }) ->
          check_bool "error names the frame limit" true
            (contains ~needle:"2048-byte frame limit" message)
      | Ok Wire.Snapshotted _ ->
          Alcotest.fail "an oversize inline snapshot reply went unguarded"
      | Ok f -> Alcotest.failf "unexpected snapshot reply %s" (Wire.encode f)
      | Error message -> Alcotest.fail message);
      (* The connection survived and is still framed. *)
      (match expect_ok (Client.call client (Wire.Stats { session = "big" })) with
      | Wire.Stats_ok { round; _ } -> check "session intact" 80 round
      | f -> Alcotest.failf "unexpected stats reply %s" (Wire.encode f));
      (* The unbounded escape hatch: snapshot to a file. *)
      (match
         expect_ok
           (Client.call client
              (Wire.Snapshot { session = "big"; path = Some "big.snap" }))
       with
      | Wire.Snapshotted { path = Some path; _ } ->
          check_bool "file snapshot written" true (Sys.file_exists path)
      | f -> Alcotest.failf "unexpected snapshot reply %s" (Wire.encode f));
      Client.close client)

(* ---- regression: signal churn during accept must not kill the
   accept loop or drop connections ---- *)

(* SIGUSR1 is blocked in this (the test's) thread before the churn
   domain spawns — it inherits the blocked mask — so every signal is
   delivered to the server's domains, which sit in select/accept. The
   server was started before the block, with the signal deliverable. *)
let test_accept_survives_signal_churn () =
  with_server (fun ~address ~snap_dir:_ ->
      let previous =
        Sys.signal Sys.sigusr1 (Sys.Signal_handle (fun _ -> ()))
      in
      let mask = [ Sys.sigusr1 ] in
      ignore (Unix.sigprocmask Unix.SIG_BLOCK mask);
      let stop = Atomic.make false in
      let pid = Unix.getpid () in
      let churn =
        Domain.spawn (fun () ->
            while not (Atomic.get stop) do
              (try Unix.kill pid Sys.sigusr1 with Unix.Unix_error _ -> ());
              try ignore (Unix.select [] [] [] 0.001)
              with Unix.Unix_error (Unix.EINTR, _, _) -> ()
            done)
      in
      Fun.protect
        ~finally:(fun () ->
          Atomic.set stop true;
          Domain.join churn;
          ignore (Unix.sigprocmask Unix.SIG_UNBLOCK mask);
          Sys.set_signal Sys.sigusr1 previous)
        (fun () ->
          for i = 0 to 14 do
            let name = Printf.sprintf "churn%d" i in
            let client = Client.connect address in
            ignore (expect_ok (Client.call client (open_frame_for name)));
            feed_step client name [| 0 |] [| 1 |];
            (match
               expect_ok (Client.call client (Wire.Close { session = name }))
             with
            | Wire.Closed _ -> ()
            | f -> Alcotest.failf "unexpected close reply %s" (Wire.encode f));
            Client.close client
          done))

(* ---- observability: metrics plane, slow log, exposition ---- *)

module Metrics = Rrs_server.Metrics
module Exposition = Rrs_server.Exposition
module Json = Rrs_sim.Event_sink.Json

(* The 'metrics' wire request must reconcile with the connection's own
   transcript: per-kind request counters, error counts, shed jobs and
   executed rounds are exactly what this client saw, and the stats_ok
   transport fields mirror the client's byte counters. *)
let test_metrics_reconciliation () =
  with_server (fun ~address ~snap_dir:_ ->
      let client = Client.connect address in
      (match
         expect_ok
           (Client.call client (Wire.Hello { client_version = Wire.version }))
       with
      | Wire.Hello_ok { server_version; server; uptime_s } ->
          check_string "negotiated /1" Wire.version server_version;
          check_string "server identity surfaced" "rrs" server;
          check_bool "uptime surfaced" true (uptime_s >= 0)
      | f -> Alcotest.failf "unexpected hello reply %s" (Wire.encode f));
      ignore (expect_ok (Client.call client (open_frame_for "obs")));
      ignore
        (expect_ok
           (Client.call client
              (Wire.Feed { session = "obs"; colors = [| 0; 1 |]; counts = [| 3; 2 |]; decl = None })));
      (* 5 buffered + 9 > queue_limit 6: the whole feed is shed. *)
      let shed_jobs =
        match
          expect_ok
            (Client.call client
               (Wire.Feed { session = "obs"; colors = [| 2 |]; counts = [| 9 |]; decl = None }))
        with
        | Wire.Shed { shed; _ } -> shed
        | f -> Alcotest.failf "expected a shed reply, got %s" (Wire.encode f)
      in
      (match
         expect_ok (Client.call client (Wire.Step { session = "obs"; rounds = 3 }))
       with
      | Wire.Stepped _ -> ()
      | f -> Alcotest.failf "unexpected step reply %s" (Wire.encode f));
      Client.send client (Wire.Stats { session = "nope" });
      expect_error client "unknown session";
      (* Server-side byte accounting: with a strict request/reply
         protocol the server has read exactly what we sent and written
         exactly what we received. *)
      let received_before = Client.bytes_received client in
      (match expect_ok (Client.call client (Wire.Stats { session = "obs" })) with
      | Wire.Stats_ok { wire; bytes_in; bytes_out; shed; _ } ->
          check "stats_ok carries the negotiated wire version" 1 wire;
          check "server-side bytes_in = client bytes sent"
            (Client.bytes_sent client) bytes_in;
          check "server-side bytes_out = client bytes received"
            received_before bytes_out;
          check "shed surfaced in stats" shed_jobs shed
      | f -> Alcotest.failf "unexpected stats reply %s" (Wire.encode f));
      let doc =
        match expect_ok (Client.call client (Wire.Metrics { slow = 0 })) with
        | Wire.Metrics_ok { doc; slow } ->
            check_string "no slow entries requested" "" slow;
            doc
        | f -> Alcotest.failf "unexpected metrics reply %s" (Wire.encode f)
      in
      let fields = Json.parse_fields doc in
      let g name = Json.opt_int_field fields name ~default:0 in
      (* Transcript so far: hello open feed feed step stats stats. The
         in-flight metrics request is recorded only after its reply. *)
      check "requests_total" 7 (g "requests_total");
      check "hello counted" 1 (g "requests_hello");
      check "opens counted" 1 (g "requests_open");
      check "feeds counted" 2 (g "requests_feed");
      check "steps counted" 1 (g "requests_step");
      check "stats counted (the error too)" 2 (g "requests_stats");
      check "metrics not yet counted mid-flight" 0 (g "requests_metrics");
      check "errors_total" 1 (g "errors_total");
      check "malformed_total" 0 (g "malformed_total");
      check "per-kind counters sum to the total" (g "requests_total")
        (Array.fold_left
           (fun acc k -> acc + g ("requests_" ^ k))
           0 Metrics.kinds);
      check "per-kind latency histograms cover every request"
        (g "requests_total")
        (Array.fold_left
           (fun acc k -> acc + g ("req_latency_us_" ^ k ^ "_count"))
           0 Metrics.kinds);
      check "shed jobs reconcile" shed_jobs (g "shed_jobs_total");
      check "rounds reconcile" 3 (g "rounds_total");
      check "sessions_open gauge" 1 (g "sessions_open");
      check "session shed gauge agrees" shed_jobs (g "sessions_shed_jobs");
      (* The second look sees the first metrics request counted. *)
      (match expect_ok (Client.call client (Wire.Metrics { slow = 0 })) with
      | Wire.Metrics_ok { doc; _ } ->
          check "first metrics request counted" 1
            (Json.opt_int_field (Json.parse_fields doc) "requests_metrics"
               ~default:0)
      | f -> Alcotest.failf "unexpected metrics reply %s" (Wire.encode f));
      Client.close client)

(* A 1 µs threshold makes essentially every request slow: entries show
   up newest first, parse as flat JSON, respect the ring capacity and
   the per-request cap. *)
let test_metrics_slow_log () =
  let dir = Filename.temp_file "rrs_slow" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let address = Server.Unix_socket (Filename.concat dir "sock") in
  let config =
    { (Server.default_config address) with
      slow_threshold_us = 1; slow_log = 4 }
  in
  let server = Server.start config in
  Fun.protect
    ~finally:(fun () -> ignore (Server.stop ~drain:false server))
    (fun () ->
      let client = Client.connect address in
      ignore (expect_ok (Client.call client (open_frame_for "slow")));
      for _ = 1 to 6 do
        ignore
          (expect_ok
             (Client.call client
                (Wire.Feed { session = "slow"; colors = [| 0 |]; counts = [| 1 |]; decl = None })));
        ignore
          (expect_ok
             (Client.call client (Wire.Step { session = "slow"; rounds = 1 })))
      done;
      (match expect_ok (Client.call client (Wire.Metrics { slow = 10 })) with
      | Wire.Metrics_ok { doc; slow } ->
          check_bool "slow_total counted" true
            (Json.opt_int_field (Json.parse_fields doc) "slow_total" ~default:0
             > 0);
          check_bool "slow log non-empty" true (slow <> "");
          let lines = String.split_on_char '\n' slow in
          check_bool "ring capacity bounds the log" true
            (List.length lines <= 4);
          let ats =
            List.map
              (fun line ->
                let f = Json.parse_fields line in
                check_bool "latency at or over the threshold" true
                  (Json.int_field f "latency_us" >= 1);
                check_bool "kind name is known" true
                  (Array.exists (( = ) (Json.str_field f "type")) Metrics.kinds);
                Json.int_field f "at_us")
              lines
          in
          check_bool "newest first" true
            (List.sort (fun a b -> compare b a) ats = ats)
      | f -> Alcotest.failf "unexpected metrics reply %s" (Wire.encode f));
      (* slow=0 asks for no entries even though some were recorded. *)
      (match expect_ok (Client.call client (Wire.Metrics { slow = 0 })) with
      | Wire.Metrics_ok { slow; _ } -> check_string "slow=0 elides" "" slow
      | f -> Alcotest.failf "unexpected metrics reply %s" (Wire.encode f));
      Client.close client)

(* The Prometheus rendering, off a hand-fed metrics plane: labeled
   families, cumulative le-buckets. *)
let test_exposition_render () =
  let m = Metrics.create () in
  let span = Metrics.span () in
  let record kind =
    Metrics.reset_span span;
    span.Metrics.s_kind <- kind;
    span.Metrics.s_handle_us <- 5;
    span.Metrics.s_write_us <- 2;
    span.Metrics.s_bytes_in <- 10;
    span.Metrics.s_bytes_out <- 20;
    Metrics.record m span
  in
  (* two feeds and a step, each counted once in its family *)
  record 2;
  record 2;
  record 3;
  let text = Exposition.render (Metrics.merged m) in
  let expect needle =
    check_bool (Printf.sprintf "exposition contains %S" needle) true
      (contains ~needle text)
  in
  expect "# TYPE rrs_requests counter";
  expect "rrs_requests{type=\"feed\"} 2";
  expect "rrs_requests{type=\"step\"} 1";
  expect "rrs_requests_total 3";
  (* latency 5+2=7 µs: cumulative zero through le=4, both feeds by le=8 *)
  expect "rrs_req_latency_us_bucket{type=\"feed\",le=\"4\"} 0";
  expect "rrs_req_latency_us_bucket{type=\"feed\",le=\"8\"} 2";
  expect "rrs_req_latency_us_bucket{type=\"feed\",le=\"+Inf\"} 2";
  expect "rrs_req_latency_us_sum{type=\"feed\"} 14";
  expect "rrs_req_latency_us_count{type=\"feed\"} 2";
  expect "# TYPE rrs_lock_wait_us histogram";
  expect "rrs_lock_wait_us_count 3";
  expect "rrs_bytes_in_sum 30"

(* The --metrics listener end to end: drive a session over the wire,
   then scrape the HTTP endpoint and find the series. *)
let test_metrics_http_endpoint () =
  let dir = Filename.temp_file "rrs_http" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let address = Server.Unix_socket (Filename.concat dir "sock") in
  let config =
    { (Server.default_config address) with
      metrics = Some (Server.Tcp ("127.0.0.1", 0)) }
  in
  let server = Server.start config in
  Fun.protect
    ~finally:(fun () -> ignore (Server.stop ~drain:false server))
    (fun () ->
      let client = Client.connect address in
      ignore (expect_ok (Client.call client (open_frame_for "http")));
      feed_step client "http" [| 0 |] [| 2 |];
      (* A metrics round trip synchronizes: every earlier span is
         recorded once its reply (and thus this one) is out. *)
      ignore (expect_ok (Client.call client (Wire.Metrics { slow = 0 })));
      let port =
        match Server.bound_metrics_port server with
        | Some port -> port
        | None -> Alcotest.fail "no bound metrics port"
      in
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      let out = Unix.out_channel_of_descr fd in
      output_string out "GET /metrics HTTP/1.1\r\nHost: test\r\n\r\n";
      flush out;
      let response = In_channel.input_all (Unix.in_channel_of_descr fd) in
      (try Unix.close fd with Unix.Unix_error _ -> ());
      let expect needle =
        check_bool (Printf.sprintf "scrape contains %S" needle) true
          (contains ~needle response)
      in
      expect "HTTP/1.1 200 OK";
      expect "Content-Type: text/plain; version=0.0.4";
      expect "# TYPE rrs_requests counter";
      expect "rrs_requests{type=\"open\"} 1";
      expect "rrs_requests{type=\"feed\"} 1";
      expect "rrs_requests{type=\"step\"} 1";
      expect "rrs_sessions_open 1";
      expect "le=\"+Inf\"";
      Client.close client)

(* One silent peer on the metrics port must not stall the responder:
   the request head is read within a fixed deadline, so a real scrape
   behind it is answered and [stop] returns while the peer still idles
   (an unbounded head read would hold both until the peer closed). *)
let test_metrics_http_idle_peer () =
  let dir = Filename.temp_file "rrs_http_idle" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let address = Server.Unix_socket (Filename.concat dir "sock") in
  let config =
    { (Server.default_config address) with
      metrics = Some (Server.Tcp ("127.0.0.1", 0)) }
  in
  let server = Server.start config in
  let port =
    match Server.bound_metrics_port server with
    | Some port -> port
    | None -> Alcotest.fail "no bound metrics port"
  in
  let connect () =
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
    (* the test itself must never hang on a stalled responder *)
    Unix.setsockopt_float fd Unix.SO_RCVTIMEO 5.0;
    fd
  in
  let idle = connect () in
  Unix.sleepf 0.05;
  let t0 = Unix.gettimeofday () in
  let scrape = connect () in
  let request = "GET /metrics HTTP/1.1\r\nHost: test\r\n\r\n" in
  ignore (Unix.write_substring scrape request 0 (String.length request));
  let response =
    (* a receive timeout surfaces as Sys_blocked_io *)
    try In_channel.input_all (Unix.in_channel_of_descr scrape)
    with Sys_error _ | Sys_blocked_io -> ""
  in
  let answered_s = Unix.gettimeofday () -. t0 in
  Unix.close scrape;
  check_bool "scrape behind an idle peer is answered" true
    (contains ~needle:"HTTP/1.1 200 OK" response);
  check_bool (Printf.sprintf "answered within 3 s (%.2f s)" answered_s) true
    (answered_s < 3.0);
  (* A fresh idle peer, accepted and waited on while [stop] runs. *)
  let idle2 = connect () in
  Unix.sleepf 0.1;
  let stopped = Atomic.make false in
  let t1 = Unix.gettimeofday () in
  let stopper =
    Domain.spawn (fun () ->
        ignore (Server.stop ~drain:false server);
        Atomic.set stopped true)
  in
  while (not (Atomic.get stopped)) && Unix.gettimeofday () -. t1 < 3.0 do
    Unix.sleepf 0.01
  done;
  let stop_s = Unix.gettimeofday () -. t1 in
  let returned = Atomic.get stopped in
  Unix.close idle;
  Unix.close idle2;
  Domain.join stopper;
  check_bool
    (Printf.sprintf "stop returned within 3 s with a peer idle (%.2f s)" stop_s)
    true returned

(* Scrapes under load: a second domain scrapes /metrics in a loop
   while a client runs feed/step pairs. Every scrape is answered 200,
   the session-rounds gauge never goes back and reaches the client's
   round, and [stop] returns promptly while scrapes keep arriving. *)
let test_metrics_http_under_load () =
  let dir = Filename.temp_file "rrs_http_load" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let address = Server.Unix_socket (Filename.concat dir "sock") in
  let config =
    { (Server.default_config address) with
      metrics = Some (Server.Tcp ("127.0.0.1", 0)) }
  in
  let server = Server.start config in
  let port =
    match Server.bound_metrics_port server with
    | Some port -> port
    | None -> Alcotest.fail "no bound metrics port"
  in
  let rounds_of response =
    let prefix = "rrs_sessions_rounds " in
    List.find_map
      (fun line ->
        if String.starts_with ~prefix line then
          int_of_string_opt
            (String.sub line (String.length prefix)
               (String.length line - String.length prefix))
        else None)
      (String.split_on_char '\n' response)
  in
  (* One scrape: the response, or "" when the connection failed. *)
  let scrape () =
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      (fun () ->
        try
          Unix.setsockopt_float fd Unix.SO_RCVTIMEO 5.0;
          Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
          let request = "GET /metrics HTTP/1.1\r\nHost: test\r\n\r\n" in
          ignore (Unix.write_substring fd request 0 (String.length request));
          In_channel.input_all (Unix.in_channel_of_descr fd)
        with Unix.Unix_error _ | Sys_error _ | Sys_blocked_io -> "")
  in
  let stop_called = Atomic.make false in
  let quit = Atomic.make false in
  let done_scrapes = Atomic.make 0 in
  (* Scrapes that began and ended before [stop] was called. *)
  let scraper =
    Domain.spawn (fun () ->
        let before_stop = ref [] in
        while not (Atomic.get quit) do
          let began_running = not (Atomic.get stop_called) in
          let response = scrape () in
          if began_running && not (Atomic.get stop_called) then begin
            before_stop := response :: !before_stop;
            Atomic.incr done_scrapes
          end
          else Unix.sleepf 0.001
        done;
        List.rev !before_stop)
  in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set quit true;
      if not (Atomic.get stop_called) then
        ignore (Server.stop ~drain:false server))
    (fun () ->
      let client = Client.connect address in
      ignore (expect_ok (Client.call client (open_frame_for "load")));
      for _ = 1 to 200 do
        feed_step client "load" [| 0 |] [| 1 |]
      done;
      (* at least one whole scrape after the last step *)
      let seen = Atomic.get done_scrapes in
      let deadline = Unix.gettimeofday () +. 10. in
      while
        Atomic.get done_scrapes < seen + 2 && Unix.gettimeofday () < deadline
      do
        Unix.sleepf 0.005
      done;
      Client.close client;
      let stopped = Atomic.make false in
      let t0 = Unix.gettimeofday () in
      Atomic.set stop_called true;
      let stopper =
        Domain.spawn (fun () ->
            ignore (Server.stop ~drain:false server);
            Atomic.set stopped true)
      in
      while (not (Atomic.get stopped)) && Unix.gettimeofday () -. t0 < 3.0 do
        Unix.sleepf 0.01
      done;
      let stop_s = Unix.gettimeofday () -. t0 in
      let returned = Atomic.get stopped in
      check_bool
        (Printf.sprintf "stop returned within 3 s under scrapes (%.2f s)" stop_s)
        true returned;
      Domain.join stopper);
  let responses = Domain.join scraper in
  check_bool "scrapes ran during the load" true (List.length responses >= 2);
  let last =
    List.fold_left
      (fun previous response ->
        check_bool "every scrape answered 200" true
          (contains ~needle:"HTTP/1.1 200 OK" response);
        match rounds_of response with
        | None -> Alcotest.fail "scrape without rrs_sessions_rounds"
        | Some rounds ->
            check_bool
              (Printf.sprintf "rounds never decrease (%d after %d)" rounds
                 previous)
              true (rounds >= previous);
            rounds)
      0 responses
  in
  check "rounds end at the client's round" 200 last

(* The HTTP listener's bounds on outside input: a peer that sends half
   a head and idles is closed by the 1 s exchange deadline, a head that
   runs past 8 KiB is closed unanswered, and a scrape is not a request,
   so two scrapes in a row report the same [rrs_requests_total]. *)
let test_metrics_http_bounds () =
  let dir = Filename.temp_file "rrs_http_bounds" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let address = Server.Unix_socket (Filename.concat dir "sock") in
  let config =
    { (Server.default_config address) with
      metrics = Some (Server.Tcp ("127.0.0.1", 0)) }
  in
  let server = Server.start config in
  Fun.protect
    ~finally:(fun () -> ignore (Server.stop ~drain:false server))
    (fun () ->
      let port =
        match Server.bound_metrics_port server with
        | Some port -> port
        | None -> Alcotest.fail "no bound metrics port"
      in
      let connect () =
        let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
        Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
        Unix.setsockopt_float fd Unix.SO_RCVTIMEO 5.0;
        fd
      in
      let send fd data =
        ignore (Unix.write_substring fd data 0 (String.length data))
      in
      (* What the server sent before it closed, and how long that took;
         None when it was still open after the 5 s receive timeout. *)
      let until_closed fd =
        let t0 = Unix.gettimeofday () in
        let buf = Buffer.create 4096 and chunk = Bytes.create 4096 in
        let rec go () =
          match Unix.read fd chunk 0 (Bytes.length chunk) with
          | 0 -> Some (Buffer.contents buf, Unix.gettimeofday () -. t0)
          | k ->
              Buffer.add_subbytes buf chunk 0 k;
              go ()
          | exception Unix.Unix_error (Unix.ECONNRESET, _, _) ->
              Some (Buffer.contents buf, Unix.gettimeofday () -. t0)
          | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
            ->
              None
        in
        let result = go () in
        Unix.close fd;
        result
      in
      let half = connect () in
      send half "GET /metrics HTTP/1.1\r\nHost: te";
      (match until_closed half with
      | Some (response, elapsed) ->
          check_bool "half a head draws no response" false
            (contains ~needle:"200" response);
          check_bool
            (Printf.sprintf "an idle half head is closed within 2 s (%.2f s)"
               elapsed)
            true (elapsed < 2.0)
      | None -> Alcotest.fail "an idle half head was never closed");
      let long = connect () in
      send long ("GET /" ^ String.make (9 * 1024) 'a');
      (match until_closed long with
      | Some (response, _) ->
          check_bool "a head over 8 KiB draws no 200" false
            (contains ~needle:"200" response)
      | None -> Alcotest.fail "a head over 8 KiB was never closed");
      let client = Client.connect address in
      ignore (expect_ok (Client.call client (open_frame_for "bounds")));
      feed_step client "bounds" [| 0 |] [| 1 |];
      ignore (expect_ok (Client.call client (Wire.Metrics { slow = 0 })));
      let requests_total () =
        let fd = connect () in
        send fd "GET /metrics HTTP/1.1\r\nHost: test\r\n\r\n";
        let response =
          match until_closed fd with
          | Some (response, _) -> response
          | None -> Alcotest.fail "scrape never completed"
        in
        let prefix = "rrs_requests_total " in
        match
          List.find_map
            (fun line ->
              if String.starts_with ~prefix line then
                int_of_string_opt
                  (String.sub line (String.length prefix)
                     (String.length line - String.length prefix))
              else None)
            (String.split_on_char '\n' response)
        with
        | Some total -> total
        | None -> Alcotest.fail "scrape without rrs_requests_total"
      in
      let first = requests_total () in
      check "the wire requests are counted" 4 first;
      check "a scrape is not a request" first (requests_total ());
      Client.close client)

(* ---- admission gate, live ---- *)

(* 2 colors at 1/2 job/round: sized n = 2, supply 2000 mj/r. *)
let admission_spec () =
  match
    Rrs_workload.Demand.make ~name:"gate" ~n:2 ~delta:2 ~speed:1
      (List.init 2 (fun color ->
           { Rrs_workload.Demand.color; bound = 8; rate_num = 1; rate_den = 2;
             burst = 0 }))
  with
  | Ok spec -> spec
  | Error m -> Alcotest.failf "admission spec: %s" m

let with_admission_server ~mode f =
  let dir = Filename.temp_file "rrs_adm" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let address = Server.Unix_socket (Filename.concat dir "sock") in
  let config =
    { (Server.default_config address) with
      snap_dir = Some (Filename.concat dir "snaps");
      admission = Some (admission_spec ()); admission_mode = mode }
  in
  let server = Server.start config in
  Fun.protect
    ~finally:(fun () -> ignore (Server.stop ~drain:false server))
    (fun () -> f ~address)

let declared_open ?(policy = "seq-edf") ?(n = 2) session decl =
  Wire.Open
    { session; policy; delta = 2; bounds = [| 8; 8 |]; n; speed = 1;
      horizon = 0; queue_limit = 0; decl = Some decl }

let decl ?(bursts = [||]) rates den =
  { Wire.d_rates = rates; d_den = den; d_bursts = bursts }

let admission_gauge client name =
  match expect_ok (Client.call client (Wire.Metrics { slow = 0 })) with
  | Wire.Metrics_ok { doc; _ } ->
      Json.opt_int_field (Json.parse_fields doc) name ~default:(-1)
  | f -> Alcotest.failf "metrics reply %s" (Wire.encode f)

(* A name whose open waits off the loop is reserved on the loop. The
   trace file of session "slow" is a FIFO with no reader, so A's open
   blocks in open(2) until the test attaches one; B's open of the same
   name must be refused at once, not queued behind the same FIFO, and
   the gate must hold exactly one reservation once A's open lands. *)
let test_second_open_of_opening_name () =
  let dir = Filename.temp_file "rrs_opening" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let traces = Filename.concat dir "traces" in
  Unix.mkdir traces 0o700;
  let fifo = Filename.concat traces "slow.events.jsonl" in
  Unix.mkfifo fifo 0o600;
  let address = Server.Unix_socket (Filename.concat dir "sock") in
  let config =
    { (Server.default_config address) with
      trace_dir = Some traces;
      admission = Some (admission_spec ());
      admission_mode = Rrs_server.Admission.Enforce }
  in
  let server = Server.start config in
  let fifo_reader = ref None in
  let attach_reader () =
    if !fifo_reader = None then
      fifo_reader :=
        Some (Unix.openfile fifo [ Unix.O_RDONLY; Unix.O_NONBLOCK ] 0)
  in
  let declared = decl [| 1; 1 |] 4 in
  Fun.protect
    ~finally:(fun () ->
      (* a reader first, or [stop] would wait on the blocked open *)
      (try attach_reader () with Unix.Unix_error _ -> ());
      ignore (Server.stop ~drain:false server);
      Option.iter
        (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
        !fifo_reader)
    (fun () ->
      let a = Client.connect address in
      Client.send a (declared_open "slow" declared);
      (* Let A's open reach the blocking trace-file open. *)
      Unix.sleepf 0.2;
      let b = Client.connect address in
      let t0 = Unix.gettimeofday () in
      (match Client.call ~deadline_ms:1000 b (declared_open "slow" declared) with
      | Ok (Wire.Error_frame { message }) ->
          check_bool
            (Printf.sprintf "second open refused as already open (%s)" message)
            true
            (contains ~needle:"session \"slow\" already open" message)
      | Ok f -> Alcotest.failf "second open answered %s" (Wire.encode f)
      | Error m -> Alcotest.failf "second open of an opening name: %s" m);
      let refused_s = Unix.gettimeofday () -. t0 in
      check_bool (Printf.sprintf "refused within 1 s (%.2f s)" refused_s) true
        (refused_s < 1.0);
      attach_reader ();
      (match Client.read_reply ~deadline_ms:5000 a with
      | Ok (Wire.Opened { session = "slow"; _ }) -> ()
      | Ok f -> Alcotest.failf "first open answered %s" (Wire.encode f)
      | Error m -> Alcotest.failf "first open: %s" m);
      check "one session holds a reservation" 1
        (admission_gauge b "admission_sessions");
      check "demand is one reservation"
        (Rrs_server.Admission.decl_mjpr declared)
        (admission_gauge b "admission_demand_mjpr");
      Client.close a;
      Client.close b)

let test_admission_enforce () =
  with_admission_server ~mode:Rrs_server.Admission.Enforce (fun ~address ->
      let client = Client.connect address in
      check "supply gauge is n*speed*1000" 2000
        (admission_gauge client "admission_supply_mjpr");
      (* An honest declaration within its own n and the budget. *)
      (match
         expect_ok (Client.call client (declared_open "fit" (decl [| 1; 1 |] 4)))
       with
      | Wire.Opened _ -> ()
      | f -> Alcotest.failf "fit open: %s" (Wire.encode f));
      check "demand gauge carries the reservation" 500
        (admission_gauge client "admission_demand_mjpr");
      (* Infeasible for its own n = 1 (two colors at full rate need two
         resources): a typed reject naming a binding color, no state. *)
      (match
         Client.call client (declared_open ~n:1 "infeasible" (decl [| 1; 1 |] 1))
       with
      | Ok (Wire.Admission_reject { session = "infeasible"; color; _ }) ->
          check_bool "binding color named" true (color >= 0)
      | Ok f -> Alcotest.failf "infeasible open: %s" (Wire.encode f)
      | Error m -> Alcotest.fail m);
      Client.send client (Wire.Stats { session = "infeasible" });
      expect_error client "rejected open left no session";
      (* A big-but-feasible declaration exhausts the budget... *)
      (match
         expect_ok (Client.call client (declared_open "big" (decl [| 3; 3 |] 4)))
       with
      | Wire.Opened _ -> ()
      | f -> Alcotest.failf "big open: %s" (Wire.encode f));
      check "budget exhausted" 0 (admission_gauge client "admission_headroom_mjpr");
      (* ...so one more per-session-feasible open rejects on the
         aggregate (color -1). *)
      (match Client.call client (declared_open "extra" (decl [| 1; 1 |] 4)) with
      | Ok (Wire.Admission_reject { color = -1; demand; supply; _ }) ->
          check "supply in the reject" 2000 supply;
          check_bool "demand over supply" true (demand > supply)
      | Ok f -> Alcotest.failf "extra open: %s" (Wire.encode f)
      | Error m -> Alcotest.fail m);
      (* Close releases the reservation: the same open now fits. *)
      (match expect_ok (Client.call client (Wire.Close { session = "big" })) with
      | Wire.Closed _ -> ()
      | f -> Alcotest.failf "close big: %s" (Wire.encode f));
      (match
         expect_ok (Client.call client (declared_open "extra" (decl [| 1; 1 |] 4)))
       with
      | Wire.Opened _ -> ()
      | f -> Alcotest.failf "extra open after release: %s" (Wire.encode f));
      check_bool "rejects counted" true
        (admission_gauge client "admission_rejected_total" >= 2);
      Client.close client)

(* The router accounts for frames through the same handler as the
   server: an [admission_reject] relayed from an enforcing shard counts
   as an error in the router's metrics, as it does on the shard. *)
let test_router_counts_admission_reject () =
  with_admission_server ~mode:Rrs_server.Admission.Enforce (fun ~address ->
      let dir = Filename.temp_file "rrs_adm_route" "" in
      Sys.remove dir;
      Unix.mkdir dir 0o700;
      let front = Server.Unix_socket (Filename.concat dir "front.sock") in
      let router =
        Router.start
          (Router.default_config ~address:front
             ~shards:[ { Router.shard_label = "s0"; shard_address = address } ])
      in
      Fun.protect
        ~finally:(fun () -> Router.stop router)
        (fun () ->
          let client = Client.connect front in
          (match
             Client.call client
               (declared_open ~n:1 "infeasible" (decl [| 1; 1 |] 1))
           with
          | Ok (Wire.Admission_reject { session = "infeasible"; _ }) -> ()
          | Ok f -> Alcotest.failf "routed open: %s" (Wire.encode f)
          | Error m -> Alcotest.fail m);
          (* Same connection: the reject's span is recorded before this
             metrics frame is dispatched. *)
          check "router counts the reject as an error" 1
            (admission_gauge client "errors_total");
          Client.close client;
          (* The shard records its span after its reply is out; give it
             a bounded moment. *)
          let shard = Client.connect address in
          let deadline = Unix.gettimeofday () +. 5. in
          let rec shard_errors () =
            let n = admission_gauge shard "errors_total" in
            if n >= 1 || Unix.gettimeofday () > deadline then n
            else begin
              Unix.sleepf 0.01;
              shard_errors ()
            end
          in
          check "as the shard does" 1 (shard_errors ());
          Client.close shard))

let test_admission_policing_conservation () =
  with_admission_server ~mode:Rrs_server.Admission.Enforce (fun ~address ->
      let client = Client.connect address in
      (match
         expect_ok (Client.call client (declared_open "pol" (decl [| 1; 1 |] 4)))
       with
      | Wire.Opened _ -> ()
      | f -> Alcotest.failf "open: %s" (Wire.encode f));
      (* Allowance through round 0 at rate 1/4, burst 0: zero jobs — the
         feed is over the declared envelope and is shed, not enqueued. *)
      (match
         Client.call client
           (Wire.Feed { session = "pol"; colors = [| 0 |]; counts = [| 3 |]; decl = None })
       with
      | Ok (Wire.Admission_reject { session = "pol"; color = 0; _ }) -> ()
      | Ok f -> Alcotest.failf "over-envelope feed: %s" (Wire.encode f)
      | Error m -> Alcotest.fail m);
      (match expect_ok (Client.call client (Wire.Stats { session = "pol" })) with
      | Wire.Stats_ok { fed; accepted; shed; _ } ->
          check "policed jobs counted as offered" 3 fed;
          check "nothing enqueued" 0 accepted;
          check "conservation: fed = accepted + shed" fed (accepted + shed)
      | f -> Alcotest.failf "stats: %s" (Wire.encode f));
      check "policed jobs gauge" 3 (admission_gauge client "admission_policed_jobs");
      (* A feed may re-declare a larger envelope — the same jobs are
         then in budget and accepted. *)
      (match
         Client.call client
           (Wire.Feed
              { session = "pol"; colors = [| 0 |]; counts = [| 1 |];
                decl = Some (decl ~bursts:[| 4; 0 |] [| 1; 1 |] 4) })
       with
      | Ok (Wire.Fed { accepted; _ }) -> check "accepted after re-decl" 1 accepted
      | Ok f -> Alcotest.failf "re-declared feed: %s" (Wire.encode f)
      | Error m -> Alcotest.fail m);
      Client.close client)

let test_admission_warn_admits () =
  with_admission_server ~mode:Rrs_server.Admission.Warn (fun ~address ->
      let client = Client.connect address in
      (* The same infeasible declaration the enforcing gate refuses is
         admitted under warn... *)
      (match
         expect_ok
           (Client.call client (declared_open ~n:1 "loud" (decl [| 1; 1 |] 1)))
       with
      | Wire.Opened _ -> ()
      | f -> Alcotest.failf "warn open: %s" (Wire.encode f));
      (* ...and its feeds are not policed. *)
      (match
         Client.call client
           (Wire.Feed { session = "loud"; colors = [| 0 |]; counts = [| 5 |]; decl = None })
       with
      | Ok (Wire.Fed { accepted; _ }) -> check "unpoliced" 5 accepted
      | Ok f -> Alcotest.failf "warn feed: %s" (Wire.encode f)
      | Error m -> Alcotest.fail m);
      check_bool "reservation still tracked" true
        (admission_gauge client "admission_demand_mjpr" >= 2000);
      Client.close client)

let test_admission_survives_restart () =
  let dir = Filename.temp_file "rrs_adm_restart" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let address = Server.Unix_socket (Filename.concat dir "sock") in
  let config =
    { (Server.default_config address) with
      snap_dir = Some (Filename.concat dir "snaps");
      admission = Some (admission_spec ());
      admission_mode = Rrs_server.Admission.Enforce }
  in
  let server = Server.start config in
  let client = Client.connect address in
  (match Client.negotiate client ~wire:2 with
  | Ok () -> ()
  | Error m -> Alcotest.fail m);
  (match
     expect_ok (Client.call client (declared_open "keeper" (decl [| 3; 3 |] 4)))
   with
  | Wire.Opened _ -> ()
  | f -> Alcotest.failf "open: %s" (Wire.encode f));
  Client.close client;
  (* Drain snapshots the declared session; the restarted gate must
     re-admit it, or the budget would silently double-sell. *)
  ignore (Server.stop ~drain:true server);
  let server = Server.start config in
  Fun.protect
    ~finally:(fun () -> ignore (Server.stop ~drain:false server))
    (fun () ->
      let client = Client.connect address in
      check "restored reservation still charged" 1500
        (admission_gauge client "admission_demand_mjpr");
      (* The envelope survives too: round 0 allowance at 3/4 is 0. *)
      (match
         Client.call client
           (Wire.Feed { session = "keeper"; colors = [| 1 |]; counts = [| 2 |]; decl = None })
       with
      | Ok (Wire.Admission_reject _) -> ()
      | Ok f -> Alcotest.failf "restored envelope not policed: %s" (Wire.encode f)
      | Error m -> Alcotest.fail m);
      (* And the remaining headroom is honest: 600 > 500 left. *)
      (match Client.call client (declared_open "over" (decl [| 3; 3 |] 10)) with
      | Ok (Wire.Admission_reject { color = -1; _ }) -> ()
      | Ok f -> Alcotest.failf "over-budget open after restart: %s" (Wire.encode f)
      | Error m -> Alcotest.fail m);
      Client.close client)

(* ---- endpoint byte counters survive reconnects ---- *)

let test_endpoint_bytes_accumulate () =
  with_server (fun ~address ~snap_dir:_ ->
      let endpoint = Client.Endpoint.create ~retry:Client.no_retry address in
      (match Client.Endpoint.call endpoint (open_frame_for "bytes") with
      | Ok (Wire.Opened _) -> ()
      | Ok f -> Alcotest.failf "open: %s" (Wire.encode f)
      | Error m -> Alcotest.fail m);
      let sent_before = Client.Endpoint.bytes_sent endpoint in
      let received_before = Client.Endpoint.bytes_received endpoint in
      check_bool "bytes counted" true (sent_before > 0 && received_before > 0);
      (* Drop the cached connection: the next call reconnects, and the
         totals keep accumulating instead of resetting with the conn. *)
      Client.Endpoint.drop endpoint;
      (match Client.Endpoint.call endpoint (Wire.Stats { session = "bytes" }) with
      | Ok (Wire.Stats_ok _) -> ()
      | Ok f -> Alcotest.failf "stats: %s" (Wire.encode f)
      | Error m -> Alcotest.fail m);
      check_bool "sent total grows across the reconnect" true
        (Client.Endpoint.bytes_sent endpoint > sent_before);
      check_bool "received total grows across the reconnect" true
        (Client.Endpoint.bytes_received endpoint > received_before);
      Client.Endpoint.close endpoint)

(* ---- top view: restart detection and rate clamping ---- *)

let top_sample at fields =
  { Rrs_server.Top_view.at;
    fields = List.map (fun (k, v) -> (k, Json.Vint v)) fields }

let test_top_view_rates () =
  let module Top = Rrs_server.Top_view in
  let previous =
    top_sample 100.0 [ ("uptime_s", 50); ("requests_total", 1000) ]
  in
  let healthy =
    top_sample 110.0 [ ("uptime_s", 60); ("requests_total", 1200) ]
  in
  check_bool "no baseline renders -/s" true
    (String.trim (Top.rate ~previous:None healthy "requests_total") = "-/s");
  check_string "steady rate" "20.0/s"
    (String.trim (Top.rate ~previous:(Some previous) healthy "requests_total"));
  (* Merged multi-worker counters can read slightly backwards within one
     server life: clamp to zero, never a negative rate. ([requests_total]
     itself shrinking reads as a restart — skew another counter.) *)
  let previous_rounds =
    top_sample 100.0
      [ ("uptime_s", 50); ("requests_total", 1000); ("rounds_total", 400) ]
  in
  let skewed =
    top_sample 110.0
      [ ("uptime_s", 60); ("requests_total", 1200); ("rounds_total", 395) ]
  in
  check_string "skew clamps to zero" "0.0/s"
    (String.trim (Top.rate ~previous:(Some previous_rounds) skewed "rounds_total"));
  (* A restart resets the counters: flagged, and rates hold at -/s
     rather than going hugely negative. *)
  let rebooted =
    top_sample 120.0 [ ("uptime_s", 3); ("requests_total", 40) ]
  in
  check_bool "restart detected" true (Top.restarted ~previous rebooted);
  check_bool "healthy poll is not a restart" true
    (not (Top.restarted ~previous healthy));
  check_bool "restart renders -/s" true
    (String.trim (Top.rate ~previous:(Some previous) rebooted "requests_total") = "-/s");
  let rendered = Top.render ~previous:(Some previous) rebooted ~slow:[] in
  check_bool "restart marker in the header" true
    (contains ~needle:"[server restarted]" rendered);
  check_bool "no marker on a healthy poll" true
    (not
       (contains ~needle:"[server restarted]"
          (Top.render ~previous:(Some previous) healthy ~slow:[])))

let test_top_view_admission_line () =
  let module Top = Rrs_server.Top_view in
  let gated =
    top_sample 10.0
      [ ("uptime_s", 10); ("requests_total", 5);
        ("admission_supply_mjpr", 2000); ("admission_demand_mjpr", 1500);
        ("admission_headroom_mjpr", 500); ("admission_sessions", 3);
        ("admission_rejected_total", 2); ("admission_policed_jobs", 7) ]
  in
  let rendered = Top.render ~previous:None gated ~slow:[] in
  check_bool "admission line present" true (contains ~needle:"admission" rendered);
  check_bool "supply shown" true (contains ~needle:"2000" rendered);
  check_bool "headroom shown" true (contains ~needle:"500" rendered);
  let ungated = top_sample 10.0 [ ("uptime_s", 10); ("requests_total", 5) ] in
  check_bool "no admission line without the gauges" true
    (not (contains ~needle:"admission" (Top.render ~previous:None ungated ~slow:[])))

let prop = QCheck_alcotest.to_alcotest

let suite =
  [
    ( "server.wire",
      [
        prop prop_wire_roundtrip;
        prop prop_wire_framed_roundtrip;
        Alcotest.test_case "malformed lines stay line-synced" `Quick
          test_wire_malformed_lines;
        Alcotest.test_case "over-long frames are unreceivable" `Quick
          test_wire_overlong_frame_unreceivable;
        Alcotest.test_case "reply cap, both framings" `Quick
          test_reply_cap_both_framings;
      ] );
    ( "server.wire2",
      [
        prop prop_wire2_roundtrip;
        prop prop_wire2_framed_roundtrip;
        Alcotest.test_case "garbage resync (newline + magic)" `Quick
          test_wire2_garbage_resync;
        Alcotest.test_case "frame larger than the reader chunk" `Quick
          test_wire2_large_frame;
        Alcotest.test_case "forward compatibility, both framings" `Quick
          test_wire_forward_compat;
        Alcotest.test_case "golden bytes of every frame type" `Quick
          test_wire_golden_bytes;
        Alcotest.test_case "metrics kinds follow the schema" `Quick
          test_metrics_kinds_follow_schema;
        prop prop_decoders_total;
        Alcotest.test_case "varint length bound" `Quick
          test_wire2_varint_bounds;
      ] );
    ( "server.session",
      [
        Alcotest.test_case "shed + conservation" `Quick
          test_session_shed_and_conservation;
        Alcotest.test_case "close/release idempotent trace" `Quick
          test_session_close_idempotent_trace;
        Alcotest.test_case "save failure removes the temp file" `Quick
          test_session_save_failure_cleans_tmp;
        Alcotest.test_case "restore rejects mixed snapshot versions" `Quick
          test_restore_rejects_mixed_versions;
        Alcotest.test_case "pre-/2 session file restores upgraded" `Quick
          test_frozen_v1_session_upgrades;
        Alcotest.test_case "concurrent saves of one path never tear" `Quick
          test_concurrent_saves_never_tear;
      ] );
    ( "server.stepper",
      [
        Alcotest.test_case "engine = stepper loop (byte-identical)" `Quick
          test_engine_stepper_identity;
        Alcotest.test_case "multi-feed round = combined feed" `Quick
          test_stepper_multi_feed_order;
        Alcotest.test_case "snapshot/restore mid-run" `Quick
          test_snapshot_restore_midrun;
        Alcotest.test_case "frozen rrs-snap/1 document resumes" `Quick
          test_frozen_v1_snapshot_resumes;
        Alcotest.test_case "restore refuses an unknown base color" `Quick
          test_restore_refuses_unknown_base_color;
        Alcotest.test_case "restore rejects tampering" `Quick
          test_restore_rejects_tampering;
        prop prop_snapshot_restore;
        prop prop_snapshot_restore_v2;
        prop prop_snapshot_restore_v2_sweep_shape;
        Alcotest.test_case "checkpointing does not perturb the stream" `Quick
          test_checkpointing_does_not_perturb_stream;
        Alcotest.test_case "checkpoints bound history and snapshot size"
          `Quick test_checkpoint_compaction_bound;
        Alcotest.test_case "policy blob serialize/deserialize fixpoint" `Quick
          test_policy_blob_fixpoint;
      ] );
    ( "server.live",
      [
        Alcotest.test_case "survives malformed corpus" `Quick
          test_server_survives_malformed;
        Alcotest.test_case "drain + restore continuity" `Quick
          test_server_drain_restore;
        Alcotest.test_case "restore validates embedded names" `Quick
          test_restore_validates_names;
        Alcotest.test_case "unresolvable hosts fail cleanly" `Quick
          test_unknown_host;
        Alcotest.test_case "open constructs outside the manager lock" `Quick
          test_open_constructs_outside_lock;
        Alcotest.test_case "a second open of an opening name is refused at once"
          `Quick test_second_open_of_opening_name;
        Alcotest.test_case "stop without drain ends every trace" `Quick
          test_stop_without_drain_ends_traces;
        Alcotest.test_case "/2 negotiation + garbage resync" `Quick
          test_wire2_live_negotiation;
        Alcotest.test_case "max_wire=1 pins the server to /1" `Quick
          test_server_pinned_to_wire1;
        Alcotest.test_case "/1 and /2 replies are identical" `Quick
          test_wire_equality_across_framings;
        Alcotest.test_case "crafted /2 frame cannot wedge the server" `Quick
          test_hostile_wire2_frame_live;
        Alcotest.test_case "oversize inline snapshot answers an error" `Quick
          test_oversize_inline_snapshot_reply;
        Alcotest.test_case "accept survives signal churn" `Quick
          test_accept_survives_signal_churn;
        Alcotest.test_case "endpoint bytes accumulate across reconnects"
          `Quick test_endpoint_bytes_accumulate;
      ] );
    ( "server.admission",
      [
        Alcotest.test_case "enforce: typed rejects, budget, release" `Quick
          test_admission_enforce;
        Alcotest.test_case "policing preserves conservation" `Quick
          test_admission_policing_conservation;
        Alcotest.test_case "warn admits and does not police" `Quick
          test_admission_warn_admits;
        Alcotest.test_case "gate state survives drain + restart" `Quick
          test_admission_survives_restart;
        Alcotest.test_case "router counts admission_reject as an error"
          `Quick test_router_counts_admission_reject;
      ] );
    ( "server.top",
      [
        Alcotest.test_case "rates: baseline, skew clamp, restart" `Quick
          test_top_view_rates;
        Alcotest.test_case "admission line when gauges present" `Quick
          test_top_view_admission_line;
      ] );
    ( "server.observability",
      [
        Alcotest.test_case "metrics reconcile with the client transcript"
          `Quick test_metrics_reconciliation;
        Alcotest.test_case "slow-request log over the wire" `Quick
          test_metrics_slow_log;
        Alcotest.test_case "prometheus exposition rendering" `Quick
          test_exposition_render;
        Alcotest.test_case "--metrics http endpoint serves a scrape" `Quick
          test_metrics_http_endpoint;
        Alcotest.test_case "an idle metrics peer stalls neither scrape nor stop"
          `Quick test_metrics_http_idle_peer;
        Alcotest.test_case "http scrapes under load: all 200, monotone, prompt stop"
          `Quick test_metrics_http_under_load;
        Alcotest.test_case "http bounds: idle half head, 8 KiB head, scrapes uncounted"
          `Quick test_metrics_http_bounds;
      ] );
  ]
