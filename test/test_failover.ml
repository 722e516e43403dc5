(* Sharded-serving failover tests: consistent-hash ring properties
   (balance, minimal remapping — qcheck), the per-shard health state
   machine (trip / probe backoff / re-admission on a synthetic clock),
   client deadlines against a stalled server, deterministic retry
   backoff, the feed/step never-retried-after-send contract, clean
   "cannot connect" errors, the drain-continues-past-one-failure
   contract, and a live router end-to-end: kill a shard, get clean
   errors (never a hang), bring it back, watch re-admission and
   session continuity. *)

module Wire = Rrs_server.Wire
module Server = Rrs_server.Server
module Client = Rrs_server.Client
module Router = Rrs_server.Router
module Health = Rrs_server.Health

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ---- ring properties (qcheck) ---- *)

let gen_shard_count = QCheck2.Gen.int_range 2 8

let ring_of n =
  Router.Ring.make (Array.init n (Printf.sprintf "shard-%d"))

let keys count = List.init count (Printf.sprintf "session-%d")

let ring_balance =
  QCheck2.Test.make ~name:"ring: virtual nodes balance key ownership"
    ~count:20 gen_shard_count (fun shards ->
      let ring = ring_of shards in
      let counts = Array.make shards 0 in
      List.iter
        (fun key ->
          let i = Router.Ring.index ring key in
          counts.(i) <- counts.(i) + 1)
        (keys 2000);
      let mx = Array.fold_left max 0 counts in
      let mn = Array.fold_left min max_int counts in
      if mn = 0 then
        QCheck2.Test.fail_reportf "a shard owns no keys: %s"
          (String.concat "," (Array.to_list (Array.map string_of_int counts)));
      (* 128 vnodes/shard keeps the spread well under 2.5x. *)
      if float_of_int mx /. float_of_int mn > 2.5 then
        QCheck2.Test.fail_reportf "imbalance %d vs %d over %d shards" mx mn
          shards;
      true)

let ring_minimal_remap =
  QCheck2.Test.make
    ~name:"ring: removing one shard remaps only its own keys" ~count:20
    gen_shard_count (fun shards ->
      let full = ring_of shards in
      let labels = Router.Ring.labels full in
      let removed = labels.(shards - 1) in
      let rest =
        Router.Ring.make (Array.sub labels 0 (shards - 1))
      in
      let moved = ref 0 and total = 2000 in
      List.iter
        (fun key ->
          let before = Router.Ring.shard full key in
          let after = Router.Ring.shard rest key in
          if before <> removed then begin
            (* A key whose owner survived must not move at all. *)
            if after <> before then
              QCheck2.Test.fail_reportf
                "key %S moved %s -> %s though %s survived" key before after
                before
          end
          else incr moved)
        (keys total);
      (* The removed shard owned ~1/N of the keys; generous bounds. *)
      let fraction = float_of_int !moved /. float_of_int total in
      let expected = 1. /. float_of_int shards in
      if fraction > 2.5 *. expected then
        QCheck2.Test.fail_reportf "removed shard owned %.3f of keys (~%.3f)"
          fraction expected;
      true)

let test_ring_stability () =
  (* Same labels, same ring, whatever the construction order — a
     restarted router must route identically. *)
  let a = Router.Ring.make [| "alpha"; "beta"; "gamma" |] in
  let b = Router.Ring.make [| "alpha"; "beta"; "gamma" |] in
  List.iter
    (fun key ->
      Alcotest.(check string)
        key
        (Router.Ring.shard a key)
        (Router.Ring.shard b key))
    (keys 200);
  (match Router.Ring.make [||] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "empty ring must be refused");
  match Router.Ring.make ~replicas:0 [| "a" |] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "replicas=0 must be refused"

let test_ring_scatters_similar_keys () =
  (* Session names differing in one trailing character must not clump
     onto one shard (the raw-FNV failure mode the fmix64 finalizer
     exists to prevent). *)
  let ring = ring_of 2 in
  let owners =
    List.map (fun i -> Router.Ring.index ring (Printf.sprintf "fo-%d" i))
      (List.init 16 Fun.id)
  in
  check_bool "similar keys hit both shards" true
    (List.exists (fun o -> o = 0) owners
    && List.exists (fun o -> o = 1) owners)

(* ---- health state machine (synthetic clock) ---- *)

let test_health_trip_and_readmit () =
  let h = Health.create ~fail_threshold:3 ~probe_interval_ms:100 () in
  check_bool "starts up" true (Health.is_up h);
  Health.fail h ~now_ms:0 ~reason:"a";
  Health.fail h ~now_ms:1 ~reason:"b";
  check_bool "below threshold stays up" true (Health.is_up h);
  (* A success resets the streak: two more failures don't trip it. *)
  Health.ok h;
  Health.fail h ~now_ms:2 ~reason:"c";
  Health.fail h ~now_ms:3 ~reason:"d";
  check_bool "streak reset by success" true (Health.is_up h);
  Health.fail h ~now_ms:4 ~reason:"down now";
  check_bool "trips at threshold" false (Health.is_up h);
  Alcotest.(check string) "last error kept" "down now" (Health.last_error h);
  let failures, trips, readmits = Health.counters h in
  check "failures" 5 failures;
  check "trips" 1 trips;
  check "readmits" 0 readmits;
  Health.ok h;
  check_bool "ok re-admits" true (Health.is_up h);
  let _, _, readmits = Health.counters h in
  check "readmit counted" 1 readmits

let test_health_probe_backoff () =
  let h =
    Health.create ~fail_threshold:1 ~probe_interval_ms:100 ~probe_max_ms:400 ()
  in
  Health.fail h ~now_ms:1_000 ~reason:"dead";
  check_bool "no probe before the interval" false (Health.probe_due h ~now_ms:1_050);
  check_bool "probe due after interval" true (Health.probe_due h ~now_ms:1_100);
  (* Each failed probe doubles the wait: 200, then 400, then capped. *)
  Health.probe_failed h ~now_ms:1_100 ~reason:"still dead";
  check_bool "not due at +100" false (Health.probe_due h ~now_ms:1_200);
  check_bool "due at +200" true (Health.probe_due h ~now_ms:1_300);
  Health.probe_failed h ~now_ms:1_300 ~reason:"still dead";
  check_bool "due at +400" true (Health.probe_due h ~now_ms:1_700);
  Health.probe_failed h ~now_ms:1_700 ~reason:"still dead";
  check_bool "capped at probe_max" true (Health.probe_due h ~now_ms:2_100);
  (* Re-admission resets the backoff to the base interval. *)
  Health.ok h;
  Health.fail h ~now_ms:3_000 ~reason:"again";
  check_bool "backoff reset after readmit" true
    (Health.probe_due h ~now_ms:3_100);
  check_bool "up shards never probe" false
    (let fresh = Health.create () in
     Health.probe_due fresh ~now_ms:10_000_000)

(* ---- client deadlines and retry ---- *)

(* A listener that accepts and then ignores its clients: connects
   succeed, replies never come. *)
let with_stalled_listener f =
  let path = Filename.temp_file "rrs_stall" ".sock" in
  Sys.remove path;
  let listen = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind listen (Unix.ADDR_UNIX path);
  Unix.listen listen 8;
  Fun.protect
    ~finally:(fun () ->
      Unix.close listen;
      if Sys.file_exists path then Sys.remove path)
    (fun () -> f (Server.Unix_socket path))

let test_deadline_on_stalled_server () =
  with_stalled_listener (fun address ->
      let client = Client.connect address in
      let t0 = Unix.gettimeofday () in
      (match
         Client.call ~deadline_ms:200 client (Wire.Stats { session = "s" })
       with
      | Error _ -> ()
      | Ok frame ->
          Alcotest.failf "stalled server answered: %s" (Wire.encode frame));
      let elapsed = Unix.gettimeofday () -. t0 in
      check_bool
        (Printf.sprintf "returned near the deadline (%.3fs)" elapsed)
        true
        (elapsed >= 0.15 && elapsed < 1.5);
      check_bool "connection marked broken" true (Client.is_broken client);
      Client.close client)

let test_backoff_deterministic () =
  let sequence seed =
    let r = Client.retry_policy ~attempts:6 ~base_ms:50 ~max_ms:2_000 ~seed () in
    List.map (fun attempt -> Client.backoff_ms r ~attempt) [ 1; 2; 3; 4; 5 ]
  in
  Alcotest.(check (list int))
    "same seed, same jitter stream" (sequence 42) (sequence 42);
  check_bool "different seeds diverge" true (sequence 42 <> sequence 43);
  (* Every value stays within [base, base + base/2 + 1] for its
     attempt, with the exponential capped at max_ms. *)
  List.iteri
    (fun i backoff ->
      let base = min (50 * (1 lsl i)) 2_000 in
      check_bool
        (Printf.sprintf "attempt %d: %d within [%d, %d]" (i + 1) backoff base
           (base + (base / 2) + 1))
        true
        (backoff >= base && backoff <= base + (base / 2) + 1))
    (sequence 7)

let test_idempotence_classification () =
  check_bool "hello replays safely" true
    (Client.idempotent (Wire.Hello { client_version = Wire.version }));
  check_bool "stats replays safely" true
    (Client.idempotent (Wire.Stats { session = "s" }));
  check_bool "metrics replays safely" true
    (Client.idempotent (Wire.Metrics { slow = 0 }));
  check_bool "feed must not replay" false
    (Client.idempotent (Wire.Feed { session = "s"; colors = [| 0 |]; counts = [| 1 |]; decl = None }));
  check_bool "step must not replay" false
    (Client.idempotent (Wire.Step { session = "s"; rounds = 1 }));
  check_bool "close must not replay" false
    (Client.idempotent (Wire.Close { session = "s" }))

(* A server that accepts, reads a little, then slams the connection:
   every call fails after its bytes were written. *)
let with_slamming_listener f =
  let path = Filename.temp_file "rrs_slam" ".sock" in
  Sys.remove path;
  let listen = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind listen (Unix.ADDR_UNIX path);
  Unix.listen listen 16;
  let stop = Atomic.make false in
  let server =
    Domain.spawn (fun () ->
        while not (Atomic.get stop) do
          match Unix.select [ listen ] [] [] 0.05 with
          | [], _, _ -> ()
          | _ ->
              let fd, _ = Unix.accept listen in
              let buf = Bytes.create 256 in
              (try ignore (Unix.read fd buf 0 256) with Unix.Unix_error _ -> ());
              (try Unix.close fd with Unix.Unix_error _ -> ())
        done)
  in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set stop true;
      Domain.join server;
      Unix.close listen;
      if Sys.file_exists path then Sys.remove path)
    (fun () -> f (Server.Unix_socket path))

let test_mutations_never_retried_after_send () =
  with_slamming_listener (fun address ->
      let sleeps = ref [] in
      let retry =
        Client.retry_policy ~attempts:3 ~base_ms:1 ~max_ms:2 ~seed:7
          ~sleep_ms:(fun ms -> sleeps := ms :: !sleeps)
          ()
      in
      let endpoint = Client.Endpoint.create ~retry ~timeout_ms:500 address in
      (* A step that failed mid-flight may have applied: one attempt
         only, and the error says why. *)
      (match
         Client.Endpoint.call endpoint (Wire.Step { session = "s"; rounds = 1 })
       with
      | Ok frame -> Alcotest.failf "slammed call succeeded: %s" (Wire.encode frame)
      | Error message ->
          check_bool
            (Printf.sprintf "error explains the no-retry (%s)" message)
            true
            (let marker = "not retried" in
             let rec find i =
               if i + String.length marker > String.length message then false
               else
                 String.sub message i (String.length marker) = marker
                 || find (i + 1)
             in
             find 0));
      check "no backoff sleeps for a mutation" 0 (List.length !sleeps);
      (* The idempotent probe on the same endpoint IS retried. *)
      (match Client.Endpoint.call endpoint (Wire.Stats { session = "s" }) with
      | Ok frame -> Alcotest.failf "slammed stats succeeded: %s" (Wire.encode frame)
      | Error _ -> ());
      check "stats retried to the attempt cap" 2 (List.length !sleeps);
      Client.Endpoint.close endpoint)

let test_connect_refused_retries_any_frame () =
  let sleeps = ref [] in
  let retry =
    Client.retry_policy ~attempts:3 ~base_ms:1 ~max_ms:2 ~seed:7
      ~sleep_ms:(fun ms -> sleeps := ms :: !sleeps)
      ()
  in
  let endpoint =
    Client.Endpoint.create ~retry ~timeout_ms:200
      (Server.Unix_socket "/nonexistent/rrs/refused.sock")
  in
  (match
     Client.Endpoint.call endpoint
       (Wire.Feed { session = "s"; colors = [| 0 |]; counts = [| 1 |]; decl = None })
   with
  | Ok _ -> Alcotest.fail "connect to nowhere succeeded"
  | Error message ->
      check_bool "cannot-connect error" true
        (String.length message >= 14
        && String.sub message 0 14 = "cannot connect"));
  (* No bytes ever left: even a feed is retried on connect failure. *)
  check "feed retried across connects" 2 (List.length !sleeps);
  Client.Endpoint.close endpoint

let test_try_connect_clean_errors () =
  (match Client.try_connect (Server.Unix_socket "/nonexistent/rrs/x.sock") with
  | Ok _ -> Alcotest.fail "dead socket connected"
  | Error message ->
      check_bool "names the failure" true
        (String.length message >= 14
        && String.sub message 0 14 = "cannot connect"));
  match Client.try_connect ~timeout_ms:500 (Server.Tcp ("host.invalid", 4242)) with
  | Ok _ -> Alcotest.fail "unresolvable host connected"
  | Error message ->
      check_bool "names the host" true
        (String.length message >= 14
        && String.sub message 0 14 = "cannot connect")

(* ---- drain continues past one failing session ---- *)

let test_drain_survives_one_failing_snapshot () =
  let dir = Filename.temp_file "rrs_drain" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let snap_dir = Filename.concat dir "snaps" in
  let address = Server.Unix_socket (Filename.concat dir "sock") in
  let server =
    Server.start
      { (Server.default_config address) with
        snap_dir = Some snap_dir }
  in
  let client = Client.connect address in
  let open_session name =
    match
      Client.call client
        (Wire.Open
           { session = name; policy = "dlru"; delta = 2; bounds = [| 2; 3 |];
             n = 3; speed = 1; horizon = 0; queue_limit = 0; decl = None })
    with
    | Ok (Wire.Opened _) -> ()
    | Ok frame -> Alcotest.failf "open %s: %s" name (Wire.encode frame)
    | Error message -> Alcotest.failf "open %s: %s" name message
  in
  open_session "doomed";
  open_session "survivor";
  Client.close client;
  (* Block the doomed session's atomic snapshot write: its target path
     is already a directory, so the rename raises inside the drain. *)
  let doomed = Filename.concat snap_dir "doomed.sess.jsonl" in
  Unix.mkdir doomed 0o700;
  let drained = Server.stop ~drain:true server in
  check "only the survivor drained" 1 drained;
  check_bool "survivor snapshot written" true
    (Sys.file_exists (Filename.concat snap_dir "survivor.sess.jsonl"));
  check_bool "doomed snapshot absent" true (Sys.is_directory doomed);
  Alcotest.(check (list string))
    "no temp file left" [ "doomed.sess.jsonl"; "survivor.sess.jsonl" ]
    (List.sort compare (Array.to_list (Sys.readdir snap_dir)))

(* ---- live router end-to-end: crash, clean errors, re-admission ---- *)

let test_router_failover_live () =
  let dir = Filename.temp_file "rrs_route" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let shard_sock i = Filename.concat dir (Printf.sprintf "s%d.sock" i) in
  let shard_snaps i = Filename.concat dir (Printf.sprintf "s%d.snaps" i) in
  let shard_config i =
    Unix.mkdir (shard_snaps i) 0o700;
    { (Server.default_config (Server.Unix_socket (shard_sock i))) with
      snap_dir = Some (shard_snaps i); autosnap = true;
      checkpoint_every = 1 }
  in
  let config0 = shard_config 0 and config1 = shard_config 1 in
  let shard0 = ref (Server.start config0) in
  let shard1 = ref (Server.start config1) in
  let front = Server.Unix_socket (Filename.concat dir "front.sock") in
  let router =
    Router.start
      { (Router.default_config ~address:front
           ~shards:
             [ { Router.shard_label = "s0";
                 shard_address = Server.Unix_socket (shard_sock 0) };
               { Router.shard_label = "s1";
                 shard_address = Server.Unix_socket (shard_sock 1) } ])
        with
        Router.timeout_ms = 500; connect_timeout_ms = 300; fail_threshold = 1;
        probe_interval_ms = 25 }
  in
  Fun.protect
    ~finally:(fun () ->
      Router.stop router;
      ignore (Server.stop ~drain:false !shard0);
      ignore (Server.stop ~drain:false !shard1))
    (fun () ->
      (* Find one session name per shard. *)
      let session_on label =
        let rec go i =
          let name = Printf.sprintf "live-%d" i in
          if Router.shard_of_session router name = label then name
          else go (i + 1)
        in
        go 0
      in
      let on0 = session_on "s0" and on1 = session_on "s1" in
      let client = Client.connect front in
      let call frame = Client.call ~deadline_ms:2_000 client frame in
      let open_and_step name =
        (match
           call
             (Wire.Open
                { session = name; policy = "dlru"; delta = 2;
                  bounds = [| 2; 3 |]; n = 3; speed = 1; horizon = 0;
                  queue_limit = 0; decl = None })
         with
        | Ok (Wire.Opened _) -> ()
        | other ->
            Alcotest.failf "open %s: %s" name
              (match other with Ok f -> Wire.encode f | Error e -> e));
        ignore
          (call (Wire.Feed { session = name; colors = [| 0 |]; counts = [| 2 |]; decl = None }));
        match call (Wire.Step { session = name; rounds = 1 }) with
        | Ok (Wire.Stepped { round; _ }) -> round
        | other ->
            Alcotest.failf "step %s: %s" name
              (match other with Ok f -> Wire.encode f | Error e -> e)
      in
      let round0 = open_and_step on0 in
      let _round1 = open_and_step on1 in
      check "both shards admitted" 2 (Router.shards_up router);
      (* Crash shard 0 (no drain — autosnap checkpoints are all it
         has), then demand a clean, quick error for its session. *)
      ignore (Server.stop ~drain:false !shard0);
      let t0 = Unix.gettimeofday () in
      (match call (Wire.Stats { session = on0 }) with
      | Ok (Wire.Error_frame _) -> ()
      | Ok frame ->
          Alcotest.failf "dead shard answered: %s" (Wire.encode frame)
      | Error message -> Alcotest.failf "front connection died: %s" message);
      check_bool "error was immediate, not a hang" true
        (Unix.gettimeofday () -. t0 < 1.5);
      (* The other shard's session must be completely unaffected. *)
      (match call (Wire.Stats { session = on1 }) with
      | Ok (Wire.Stats_ok _) -> ()
      | other ->
          Alcotest.failf "surviving session failed: %s"
            (match other with Ok f -> Wire.encode f | Error e -> e));
      (* While s0 is down its requests keep failing cleanly. *)
      (match call (Wire.Step { session = on0; rounds = 1 }) with
      | Ok (Wire.Error_frame _) -> ()
      | other ->
          Alcotest.failf "down shard step: %s"
            (match other with Ok f -> Wire.encode f | Error e -> e));
      (* Restart the shard on the same state; a probe re-admits it
         and the session resumes from its checkpoint. *)
      shard0 := Server.start config0;
      let deadline = Unix.gettimeofday () +. 10. in
      let rec await_recovery () =
        match call (Wire.Stats { session = on0 }) with
        | Ok (Wire.Stats_ok { round; _ }) -> round
        | Ok (Wire.Error_frame _) | Error _ ->
            if Unix.gettimeofday () >= deadline then
              Alcotest.fail "shard never re-admitted"
            else begin
              Unix.sleepf 0.05;
              await_recovery ()
            end
        | Ok frame -> Alcotest.failf "unexpected reply %s" (Wire.encode frame)
      in
      let recovered_round = await_recovery () in
      (* checkpoint_every = 1: the acked round survived the crash. *)
      check "no acked rounds lost" round0 recovered_round;
      check "both shards admitted again" 2 (Router.shards_up router);
      Client.close client)

(* ---- a stalled shard: bounded waits, and only its own sessions ---- *)

(* [f ()] must return within [seconds]; it runs on a domain of its own
   so a hang fails the test instead of wedging the suite. *)
let within ~what seconds f =
  let finished = Atomic.make false in
  let runner = Domain.spawn (fun () -> f (); Atomic.set finished true) in
  let deadline = Unix.gettimeofday () +. seconds in
  while (not (Atomic.get finished)) && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.01
  done;
  if Atomic.get finished then Domain.join runner
  else Alcotest.failf "%s did not return within %.1fs" what seconds

let contains ~needle haystack =
  let n = String.length needle in
  let rec go i =
    i + n <= String.length haystack
    && (String.sub haystack i n = needle || go (i + 1))
  in
  go 0

let temp_dir prefix =
  let dir = Filename.temp_file prefix "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  dir

(* A shard that accepts and never answers: its hello must be bounded
   like any call. The front gets [unavailable] within about
   [timeout_ms], the probe's hello is bounded by [connect_timeout_ms],
   and [stop] returns, closing a probe in flight. *)
let test_router_stalled_shard_bounded () =
  with_stalled_listener (fun stalled ->
      let dir = temp_dir "rrs_stall_route" in
      let front = Server.Unix_socket (Filename.concat dir "front.sock") in
      let router =
        Router.start
          { (Router.default_config ~address:front
               ~shards:[ { Router.shard_label = "s0"; shard_address = stalled } ])
            with
            Router.timeout_ms = 300; connect_timeout_ms = 300;
            fail_threshold = 1; probe_interval_ms = 10 }
      in
      let stopped = ref false in
      let stop () =
        if not !stopped then begin
          stopped := true;
          within ~what:"Router.stop" 3. (fun () -> Router.stop router)
        end
      in
      Fun.protect
        ~finally:(fun () -> try stop () with _ -> ())
        (fun () ->
          let client = Client.connect front in
          let t0 = Unix.gettimeofday () in
          (match Client.call ~deadline_ms:3_000 client (Wire.Stats { session = "s" }) with
          | Ok (Wire.Error_frame { message }) ->
              check_bool
                (Printf.sprintf "unavailable error (%s)" message)
                true
                (contains ~needle:"shard s0 unavailable" message)
          | Ok frame -> Alcotest.failf "stalled shard answered: %s" (Wire.encode frame)
          | Error message -> Alcotest.failf "no reply from the router: %s" message);
          let elapsed = Unix.gettimeofday () -. t0 in
          check_bool
            (Printf.sprintf "error came near timeout_ms (%.3fs)" elapsed)
            true
            (elapsed >= 0.25 && elapsed < 1.5);
          (* The shard is down now, so the loop dials it and sends
             its hello into the stall: give it time to be mid-probe. *)
          check "shard tripped" 0 (Router.shards_up router);
          Unix.sleepf 0.1;
          Client.close client;
          stop ());
      Unix.rmdir dir)

(* Two shards, one stalled. While front connection A waits on the
   stalled shard, front connection B's frames to the healthy shard are
   answered at once; and a front connection that hangs up mid-call
   costs no fd once its call has run out. *)
let test_router_stall_isolated () =
  with_stalled_listener (fun stalled ->
      let dir = temp_dir "rrs_isolate" in
      let healthy_address = Server.Unix_socket (Filename.concat dir "s1.sock") in
      let healthy = Server.start (Server.default_config healthy_address) in
      let front = Server.Unix_socket (Filename.concat dir "front.sock") in
      let timeout_ms = 1_000 in
      let router =
        Router.start
          { (Router.default_config ~address:front
               ~shards:
                 [ { Router.shard_label = "s0"; shard_address = stalled };
                   { Router.shard_label = "s1"; shard_address = healthy_address } ])
            with
            Router.timeout_ms; fail_threshold = 100 }
      in
      Fun.protect
        ~finally:(fun () ->
          Router.stop router;
          ignore (Server.stop ~drain:false healthy);
          Unix.rmdir dir)
        (fun () ->
          let session_on label =
            let rec go i =
              let name = Printf.sprintf "iso-%d" i in
              if Router.shard_of_session router name = label then name
              else go (i + 1)
            in
            go 0
          in
          let stuck = session_on "s0" and fine = session_on "s1" in
          let a = Client.connect front and b = Client.connect front in
          let t0 = Unix.gettimeofday () in
          Client.send a (Wire.Stats { session = stuck });
          let frames =
            [ Wire.Open
                { session = fine; policy = "dlru"; delta = 2; bounds = [| 2; 3 |];
                  n = 3; speed = 1; horizon = 0; queue_limit = 0; decl = None };
              Wire.Feed { session = fine; colors = [| 0 |]; counts = [| 1 |]; decl = None };
              Wire.Step { session = fine; rounds = 1 };
              Wire.Stats { session = fine } ]
          in
          List.iter
            (fun frame ->
              match Client.call ~deadline_ms:3_000 b frame with
              | Ok (Wire.Error_frame { message }) ->
                  Alcotest.failf "healthy shard refused: %s" message
              | Ok _ -> ()
              | Error message -> Alcotest.failf "healthy shard: %s" message)
            frames;
          let served_in = Unix.gettimeofday () -. t0 in
          check_bool
            (Printf.sprintf "B served while A waits (%.3fs)" served_in)
            true
            (served_in < 0.3 *. float_of_int timeout_ms /. 1000.);
          (match Client.read_reply ~deadline_ms:3_000 a with
          | Ok (Wire.Error_frame { message }) ->
              check_bool
                (Printf.sprintf "A gets the unavailable error (%s)" message)
                true (contains ~needle:"unavailable" message)
          | Ok frame -> Alcotest.failf "stalled shard answered: %s" (Wire.encode frame)
          | Error message -> Alcotest.failf "A got no reply: %s" message);
          Client.close a;
          Client.close b;
          if Sys.file_exists "/proc/self/fd" then begin
            let fds () = Array.length (Sys.readdir "/proc/self/fd") in
            (* Let the router close A's and B's ends before counting. *)
            Unix.sleepf 0.1;
            let before = fds () in
            let c = Client.connect front in
            Client.send c (Wire.Stats { session = stuck });
            Unix.sleepf 0.05;
            Client.close c;
            let deadline =
              Unix.gettimeofday () +. (2. *. float_of_int timeout_ms /. 1000.) +. 1.
            in
            while fds () <> before && Unix.gettimeofday () < deadline do
              Unix.sleepf 0.02
            done;
            check "fd table back after a mid-call hang-up" before (fds ())
          end))

(* Probes run on the router's loop: while every probe of a tripped,
   stalled shard hangs for [connect_timeout_ms], frames to the healthy
   shard on another front connection are still answered at once, the
   up-count reads right from another domain, and [stop] closes the
   probe in flight instead of waiting it out. *)
let test_router_probe_holds_nothing_up () =
  with_stalled_listener (fun stalled ->
      let dir = temp_dir "rrs_probe_loop" in
      let healthy_address = Server.Unix_socket (Filename.concat dir "s1.sock") in
      let healthy = Server.start (Server.default_config healthy_address) in
      let front = Server.Unix_socket (Filename.concat dir "front.sock") in
      let timeout_ms = 1_000 in
      let router =
        Router.start
          { (Router.default_config ~address:front
               ~shards:
                 [ { Router.shard_label = "s0"; shard_address = stalled };
                   { Router.shard_label = "s1"; shard_address = healthy_address } ])
            with
            Router.timeout_ms; connect_timeout_ms = 300; fail_threshold = 1;
            probe_interval_ms = 10 }
      in
      let stopped = ref false in
      let stop () =
        if not !stopped then begin
          stopped := true;
          within ~what:"Router.stop" 3. (fun () -> Router.stop router)
        end
      in
      Fun.protect
        ~finally:(fun () ->
          (try stop () with _ -> ());
          ignore (Server.stop ~drain:false healthy);
          Unix.rmdir dir)
        (fun () ->
          let session_on label =
            let rec go i =
              let name = Printf.sprintf "probe-%d" i in
              if Router.shard_of_session router name = label then name
              else go (i + 1)
            in
            go 0
          in
          let stuck = session_on "s0" and fine = session_on "s1" in
          let a = Client.connect front and b = Client.connect front in
          let call client frame =
            match Client.call ~deadline_ms:3_000 client frame with
            | Ok reply -> reply
            | Error message -> Alcotest.failf "no reply from the router: %s" message
          in
          (* Trip s0: its hello runs into the stall until [timeout_ms]. *)
          (match call a (Wire.Stats { session = stuck }) with
          | Wire.Error_frame _ -> ()
          | frame -> Alcotest.failf "stalled shard answered: %s" (Wire.encode frame));
          check "s0 tripped, as read from another domain" 1
            (Router.shards_up router);
          (match
             call b
               (Wire.Open
                  { session = fine; policy = "dlru"; delta = 2; bounds = [| 2; 3 |];
                    n = 3; speed = 1; horizon = 0; queue_limit = 0; decl = None })
           with
          | Wire.Opened _ -> ()
          | frame -> Alcotest.failf "open on s1: %s" (Wire.encode frame));
          (* Over two probe budgets, s0's probes hang in the stall; every
             step to s1 meanwhile is answered at once. *)
          let worst = ref 0. in
          let until = Unix.gettimeofday () +. 0.7 in
          while Unix.gettimeofday () < until do
            let t0 = Unix.gettimeofday () in
            (match call b (Wire.Step { session = fine; rounds = 1 }) with
            | Wire.Stepped _ -> ()
            | frame -> Alcotest.failf "step on s1: %s" (Wire.encode frame));
            worst := Float.max !worst (Unix.gettimeofday () -. t0);
            Unix.sleepf 0.005
          done;
          check_bool
            (Printf.sprintf "s1 answered within 0.3 x timeout_ms (worst %.3fs)"
               !worst)
            true
            (!worst < 0.3 *. float_of_int timeout_ms /. 1000.);
          (* The trip and at least one probe that ran out in the stall. *)
          (match call b (Wire.Metrics { slow = 0 }) with
          | Wire.Metrics_ok { doc; _ } ->
              let failures =
                Rrs_sim.Event_sink.Json.opt_int_field
                  (Rrs_sim.Event_sink.Json.parse_fields doc)
                  "shard_failures_total" ~default:0
              in
              check_bool
                (Printf.sprintf "probes ran into the stall (%d failures)" failures)
                true (failures >= 2)
          | frame -> Alcotest.failf "metrics: %s" (Wire.encode frame));
          check "s0 still down, s1 up" 1 (Router.shards_up router);
          Client.close a;
          Client.close b;
          stop ()))

(* ---- waiting for listeners ---- *)

let fresh_socket_path prefix =
  let path = Filename.temp_file prefix ".sock" in
  Sys.remove path;
  path

(* A listener bound about 2 ms into the wait is seen within 25 ms of its
   bind, in the median of 5 trials (one trial descheduled on a 1-CPU host
   does not decide it). A wait that slept 50 ms between probes would
   see it about 48 ms after the bind. *)
let test_await_listening_sees_a_late_bind () =
  let lag_after_bind () =
    let path = fresh_socket_path "rrs_await" in
    let bind_at = Atomic.make 0. in
    let binder =
      Domain.spawn (fun () ->
          Unix.sleepf 0.002;
          Atomic.set bind_at (Unix.gettimeofday ());
          fst (Rrs_server.Net.listen_socket (Server.Unix_socket path)))
    in
    let result = Client.await_listening [ Server.Unix_socket path ] in
    let returned_at = Unix.gettimeofday () in
    Unix.close (Domain.join binder);
    Sys.remove path;
    (match result with
    | Ok () -> ()
    | Error _ -> Alcotest.fail "the listener was never seen");
    returned_at -. Atomic.get bind_at
  in
  let lags = List.sort compare (List.init 5 (fun _ -> lag_after_bind ())) in
  let median = List.nth lags 2 in
  check_bool
    (Printf.sprintf "median lag after the bind %.2f ms <= 25 ms" (median *. 1e3))
    true (median <= 0.025)

(* Nothing ever listens: [Error] naming the address, once the deadline
   has passed and not before, after a backoff that keeps the probes few
   (a 0.5 ms poll would make some 600 over 300 ms). *)
let test_await_listening_deadline () =
  let path = fresh_socket_path "rrs_await_none" in
  let address = Server.Unix_socket path in
  let rounds = ref 0 in
  let started = Unix.gettimeofday () in
  let result =
    Client.await_listening ~deadline_ms:300 ~between:(fun () -> incr rounds)
      [ address ]
  in
  let elapsed = Unix.gettimeofday () -. started in
  match result with
  | Ok () -> Alcotest.fail "nothing listens, yet the wait succeeded"
  | Error refused ->
      check_bool
        (Printf.sprintf "returned after the deadline (%.3f s)" elapsed)
        true (elapsed >= 0.3);
      check_bool
        (Printf.sprintf "returned soon after the deadline (%.3f s)" elapsed)
        true (elapsed < 1.3);
      check_bool
        (Printf.sprintf "few probes (%d rounds)" !rounds)
        true
        (!rounds > 0 && !rounds < 30);
      (match refused with
      | [ (a, message) ] ->
          check_bool "the refused address" true (a = address);
          check_bool
            (Printf.sprintf "message names the address (%s)" message)
            true
            (contains ~needle:path message)
      | _ -> Alcotest.fail "expected exactly the one address")

let suite =
  [
    ( "failover.ring",
      [
        QCheck_alcotest.to_alcotest ring_balance;
        QCheck_alcotest.to_alcotest ring_minimal_remap;
        Alcotest.test_case "deterministic across constructions" `Quick
          test_ring_stability;
        Alcotest.test_case "near-identical names scatter" `Quick
          test_ring_scatters_similar_keys;
      ] );
    ( "failover.health",
      [
        Alcotest.test_case "trip at threshold, readmit on ok" `Quick
          test_health_trip_and_readmit;
        Alcotest.test_case "probe backoff doubles and caps" `Quick
          test_health_probe_backoff;
      ] );
    ( "failover.client",
      [
        Alcotest.test_case "deadline bounds a stalled server" `Quick
          test_deadline_on_stalled_server;
        Alcotest.test_case "backoff is deterministic under a seed" `Quick
          test_backoff_deterministic;
        Alcotest.test_case "idempotence classification" `Quick
          test_idempotence_classification;
        Alcotest.test_case "mutations are never retried after send" `Quick
          test_mutations_never_retried_after_send;
        Alcotest.test_case "connect-refused retries any frame" `Quick
          test_connect_refused_retries_any_frame;
        Alcotest.test_case "try_connect fails with clean messages" `Quick
          test_try_connect_clean_errors;
        Alcotest.test_case "await_listening sees a late bind at once" `Quick
          test_await_listening_sees_a_late_bind;
        Alcotest.test_case "await_listening refuses at its deadline" `Quick
          test_await_listening_deadline;
      ] );
    ( "failover.server",
      [
        Alcotest.test_case "drain survives one failing snapshot" `Quick
          test_drain_survives_one_failing_snapshot;
      ] );
    ( "failover.router",
      [
        Alcotest.test_case "crash -> clean errors -> re-admission" `Quick
          test_router_failover_live;
        Alcotest.test_case "stalled shard: bounded hello, probe and stop"
          `Quick test_router_stalled_shard_bounded;
        Alcotest.test_case "stalled shard costs only its own sessions" `Quick
          test_router_stall_isolated;
        Alcotest.test_case "a probe on the loop holds nothing else up" `Quick
          test_router_probe_holds_nothing_up;
      ] );
  ]
