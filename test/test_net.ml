(* Connection-core regression tests for the poll-based serving layer:
   socket-steal refusal (a second server must not silently unlink a
   live server's Unix socket), fd hygiene in the event loop (a raising
   handler, leg callback or [on_close] costs its connection, never the
   loop or an fd),
   close-on-exec across [Shard]'s create_process children
   (an inherited socket would keep dead clients from ever seeing EOF),
   and the FD_SETSIZE-cliff churn test: >= 1024 concurrent connections
   with open/close churn, zero frame errors, and a flat fd table. *)

module Net = Rrs_server.Net
module Event_loop = Rrs_server.Event_loop
module Poll = Rrs_server.Poll
module Server = Rrs_server.Server
module Client = Rrs_server.Client
module Wire = Rrs_server.Wire
module Shard = Rrs_server.Shard

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let temp_dir prefix =
  let dir = Filename.temp_file prefix "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  dir

(* ---- Unix socket path stealing ---- *)

let test_live_socket_path_refused () =
  let dir = temp_dir "rrs_steal" in
  let path = Filename.concat dir "sock" in
  let fd, cleanup = Net.listen_socket (Net.Unix_socket path) in
  Alcotest.(check (option string)) "cleanup path" (Some path) cleanup;
  (* The path is live: a second bind must refuse, naming the conflict,
     and must leave the first listener's socket file in place. *)
  (match Net.listen_socket (Net.Unix_socket path) with
  | fd2, _ ->
      Unix.close fd2;
      Alcotest.fail "second listener stole a live socket path"
  | exception Failure message ->
      check_bool
        (Printf.sprintf "error names the conflict (%s)" message)
        true
        (let marker = "address in use by a live server" in
         let rec find i =
           if i + String.length marker > String.length message then false
           else
             String.sub message i (String.length marker) = marker
             || find (i + 1)
         in
         find 0));
  check_bool "socket file survived the refusal" true (Sys.file_exists path);
  (* Close without unlinking: the file is now stale (connects get
     ECONNREFUSED), and the next listener must clean and reuse it. *)
  Unix.close fd;
  check_bool "stale file left behind" true (Sys.file_exists path);
  let fd3, _ = Net.listen_socket (Net.Unix_socket path) in
  let probe = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect probe (Unix.ADDR_UNIX path);
  Unix.close probe;
  Unix.close fd3;
  Sys.remove path

(* Only a stale socket is cleaned away: a regular file or a directory at
   the path is refused with a named error and left as it was. *)
let test_non_socket_path_refused () =
  let dir = temp_dir "rrs_notsock" in
  let refused path =
    match Net.listen_socket (Net.Unix_socket path) with
    | fd, _ ->
        Unix.close fd;
        Alcotest.failf "listened on %s" path
    | exception Failure message ->
        let expected =
          Printf.sprintf "cannot listen on %s: exists and is not a socket" path
        in
        Alcotest.(check string) "named error" expected message
  in
  let file = Filename.concat dir "data.txt" in
  Out_channel.with_open_text file (fun oc -> output_string oc "keep me");
  refused file;
  Alcotest.(check string)
    "the file survived" "keep me"
    (In_channel.with_open_text file In_channel.input_all);
  let sub = Filename.concat dir "sub" in
  Unix.mkdir sub 0o700;
  refused sub;
  check_bool "the directory survived" true (Sys.is_directory sub);
  (* a stale socket is still replaced *)
  let stale = Filename.concat dir "sock" in
  let fd, _ = Net.listen_socket (Net.Unix_socket stale) in
  Unix.close fd;
  let fd, _ = Net.listen_socket (Net.Unix_socket stale) in
  Unix.close fd;
  List.iter Sys.remove [ file; stale ];
  Unix.rmdir sub;
  Unix.rmdir dir

let test_second_server_refused () =
  let dir = temp_dir "rrs_steal2" in
  let address = Server.Unix_socket (Filename.concat dir "sock") in
  let config = (Server.default_config address) in
  let server = Server.start config in
  Fun.protect
    ~finally:(fun () -> ignore (Server.stop ~drain:false server))
    (fun () ->
      (match Server.start config with
      | server2 ->
          ignore (Server.stop ~drain:false server2);
          Alcotest.fail "second server started on a live socket path"
      | exception Failure _ -> ());
      (* The first server must be completely unaffected by the refusal:
         its socket file is intact and it still answers. *)
      let client = Client.connect address in
      (match Client.call ~deadline_ms:5_000 client (Wire.Hello { client_version = Wire.version }) with
      | Ok (Wire.Hello_ok _) -> ()
      | Ok frame -> Alcotest.failf "unexpected reply: %s" (Wire.encode frame)
      | Error message -> Alcotest.failf "first server broken: %s" message);
      Client.close client)

(* ---- Event_loop: an exception costs its connection only ---- *)

let fd_table_size () = Array.length (Sys.readdir "/proc/self/fd")

let reply_ok = Wire.to_wire Wire.V1 (Wire.Closed { session = "ok"; cost = 0 })

(* Run a loop with [handler] on its own domain: [f] gets its address
   and the count of [on_close] calls. After shutdown the fd table must
   be back where it started; returns the final [on_close] count.
   [on_close] itself raises every time, which must cost nothing
   either. *)
let with_loop ~handler f =
  let has_proc = Sys.file_exists "/proc/self/fd" in
  let fds_before = if has_proc then fd_table_size () else 0 in
  let dir = temp_dir "rrs_raise" in
  let path = Filename.concat dir "sock" in
  let listen_fd, _ = Net.listen_socket (Net.Unix_socket path) in
  let stopping = Atomic.make false in
  let closed = Atomic.make 0 in
  let loop =
    Event_loop.create ~listen_fd ~stopping
      ~on_open:(fun () -> ())
      ~on_close:(fun () ->
        Atomic.incr closed;
        failwith "on_close bug")
      ~handler ()
  in
  let loop_domain = Domain.spawn (fun () -> Event_loop.run loop) in
  f (Server.Unix_socket path) closed;
  Atomic.set stopping true;
  Event_loop.wake_loop loop;
  Domain.join loop_domain;
  Sys.remove path;
  Unix.rmdir dir;
  if has_proc then check "fd table back to its start" fds_before (fd_table_size ());
  Atomic.get closed

(* The failing connection is closed (its peer sees EOF, [on_close]
   runs); the loop then serves a second connection. *)
let expect_eof_then_served ~frame address closed =
  let first = Client.connect address in
  (match Client.call ~deadline_ms:5_000 first frame with
  | Error "connection closed by server" -> ()
  | Ok reply -> Alcotest.failf "failing frame answered: %s" (Wire.encode reply)
  | Error message -> Alcotest.failf "peer did not see EOF: %s" message);
  Client.close first;
  let deadline = Unix.gettimeofday () +. 5. in
  while Atomic.get closed < 1 && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.01
  done;
  check "on_close ran for the failed connection" 1 (Atomic.get closed);
  let second = Client.connect address in
  (match Client.call ~deadline_ms:5_000 second (Wire.Stats { session = "ok" }) with
  | Ok (Wire.Closed { session = "ok"; _ }) -> ()
  | Ok reply -> Alcotest.failf "unexpected reply: %s" (Wire.encode reply)
  | Error message -> Alcotest.failf "loop did not survive: %s" message);
  Client.close second

let test_raising_handler_costs_its_connection () =
  check "on_close ran for both connections" 2
    (with_loop
       ~handler:(fun conn result ->
         match result with
         | Wire.Frame (Wire.Stats { session = "boom" }) ->
             failwith "handler bug"
         | _ -> Event_loop.send conn reply_ok)
       (expect_eof_then_served ~frame:(Wire.Stats { session = "boom" })))

(* The exception is raised on the leg-reply path: the handler forwards
   the frame to a backend server on a leg, and the callback that
   receives the backend's reply raises. *)
let test_raising_leg_callback_costs_its_connection () =
  let dir = temp_dir "rrs_leg" in
  let backend_address = Server.Unix_socket (Filename.concat dir "backend") in
  let backend = Server.start (Server.default_config backend_address) in
  Fun.protect
    ~finally:(fun () ->
      ignore (Server.stop ~drain:false backend);
      Unix.rmdir dir)
    (fun () ->
      check "on_close ran for both connections" 2
      @@ with_loop
        ~handler:(fun conn result ->
          match result with
          | Wire.Frame (Wire.Stats { session = "boom" } as frame) -> (
              match Event_loop.dial conn backend_address ~timeout_ms:1_000 with
              | Error message -> failwith message
              | Ok leg ->
                  Event_loop.call leg frame ~timeout_ms:5_000 (function
                    | Ok (Wire.Error_frame _) -> failwith "leg reply bug"
                    | Ok reply -> failwith ("unexpected: " ^ Wire.encode reply)
                    | Error message -> failwith message))
          | _ -> Event_loop.send conn reply_ok)
        (expect_eof_then_served ~frame:(Wire.Stats { session = "boom" })))

(* ---- close-on-exec across Shard children ---- *)

let proc_socket_fds pid =
  let dir = Printf.sprintf "/proc/%d/fd" pid in
  match Sys.readdir dir with
  | entries ->
      Array.to_list entries
      |> List.filter_map (fun entry ->
             match Unix.readlink (Filename.concat dir entry) with
             | target
               when String.length target >= 7
                    && String.sub target 0 7 = "socket:" ->
                 Some (entry ^ " -> " ^ target)
             | _ -> None
             | exception Unix.Unix_error _ -> None)
  | exception Sys_error _ -> []

let test_shard_children_inherit_no_sockets () =
  if not (Sys.file_exists "/proc/self/fd") then ()
    (* no procfs: the cloexec flags are still set, but unobservable *)
  else begin
    let dir = temp_dir "rrs_cloexec" in
    let address = Server.Unix_socket (Filename.concat dir "sock") in
    let server =
      Server.start (Server.default_config address)
    in
    let client = Client.connect address in
    (* One round trip so the server side of the connection exists before
       the child forks: listener, accepted fd, event-loop pipe — all of
       it is live right now. *)
    (match Client.call ~deadline_ms:5_000 client (Wire.Hello { client_version = Wire.version }) with
    | Ok (Wire.Hello_ok _) -> ()
    | _ -> Alcotest.fail "hello failed");
    (* A supervised shard restart is a [Unix.create_process] in this
       very process image; the stand-in child just sleeps. *)
    let shard =
      Shard.start ~base_backoff_ms:50
        [ { Shard.sp_label = "noop"; sp_argv = [| "/bin/sh"; "-c"; "sleep 30" |] } ]
    in
    Fun.protect
      ~finally:(fun () -> Shard.stop ~grace_s:2. shard)
      (fun () ->
        let pid = List.assoc "noop" (Shard.pids shard) in
        check_bool "child spawned" true (pid > 0);
        (* Between fork and exec the child legitimately holds copies of
           every fd; close-on-exec strips them at exec. Wait for that. *)
        let deadline = Unix.gettimeofday () +. 5. in
        let rec settle () =
          match proc_socket_fds pid with
          | [] -> []
          | leaked when Unix.gettimeofday () >= deadline -> leaked
          | _ ->
              Unix.sleepf 0.02;
              settle ()
        in
        Alcotest.(check (list string))
          "child holds no inherited sockets" [] (settle ());
        (* The payoff: kill the serving process's connections while the
           child lives on. The client must see EOF immediately — an
           inherited fd in the sleeper would hold the connection open
           for another 30 seconds. *)
        ignore (Server.stop ~drain:false server);
        let t0 = Unix.gettimeofday () in
        (match Client.read_reply ~deadline_ms:3_000 client with
        | Error "connection closed by server" -> ()
        | Ok frame ->
            Alcotest.failf "stopped server answered: %s" (Wire.encode frame)
        | Error message -> Alcotest.failf "expected EOF, got: %s" message);
        check_bool "EOF was prompt, not a deadline expiry" true
          (Unix.gettimeofday () -. t0 < 1.5);
        Client.close client)
  end

(* ---- the FD_SETSIZE cliff: >= 1024 concurrent connections ---- *)

let test_churn_beyond_fd_setsize () =
  let conns_wanted = 1100 in
  (* Each connection costs two fds in this process (client end + server
     end), plus the listener, wake pipe, test runner fds... *)
  let limit = Poll.raise_fd_limit ((2 * conns_wanted) + 256) in
  if limit < (2 * conns_wanted) + 128 || not (Sys.file_exists "/proc/self/fd")
  then ()
    (* fd limit pinned low in this sandbox; the CI churn smoke covers it *)
  else begin
    let dir = temp_dir "rrs_churn" in
    let address = Server.Unix_socket (Filename.concat dir "sock") in
    let server =
      Server.start (Server.default_config address)
    in
    let call client frame =
      match Client.call ~deadline_ms:10_000 client frame with
      | Ok (Wire.Error_frame { message }) ->
          Alcotest.failf "frame error under churn: %s" message
      | Ok frame -> frame
      | Error message -> Alcotest.failf "transport error under churn: %s" message
    in
    let control = Client.connect address in
    (match
       call control
         (Wire.Open
            { session = "churn"; policy = "dlru"; delta = 2;
              bounds = [| 2; 3 |]; n = 3; speed = 1; horizon = 0;
              queue_limit = 0; decl = None })
     with
    | Wire.Opened _ -> ()
    | frame -> Alcotest.failf "open: %s" (Wire.encode frame));
    let stats client =
      match call client (Wire.Stats { session = "churn" }) with
      | Wire.Stats_ok _ -> ()
      | frame -> Alcotest.failf "stats: %s" (Wire.encode frame)
    in
    (* Ramp: every connection is held open — at full ramp the server
       multiplexes 1101 live sockets, far past FD_SETSIZE — and each
       must answer a frame while all the others stay connected. *)
    let conns = Array.init conns_wanted (fun _ -> Client.connect address) in
    Array.iter stats conns;
    let at_full = fd_table_size () in
    check_bool
      (Printf.sprintf "fd table proves concurrency (%d fds)" at_full)
      true
      (at_full >= 2 * conns_wanted);
    (* Churn: close and replace swaths of connections; after each round
       the fd table must return exactly to its full-ramp size — any
       drift is a leak (or a double accounting) in the event loop. *)
    let churn_per_round = 128 in
    for round = 0 to 2 do
      for i = 0 to churn_per_round - 1 do
        let j = ((round * churn_per_round) + i) mod conns_wanted in
        Client.close conns.(j);
        conns.(j) <- Client.connect address;
        stats conns.(j)
      done;
      (* The event loop closes its half asynchronously; give it a
         bounded moment to settle before pinning the count. *)
      let deadline = Unix.gettimeofday () +. 5. in
      let rec settle () =
        if fd_table_size () = at_full then ()
        else if Unix.gettimeofday () >= deadline then ()
        else begin
          Unix.sleepf 0.01;
          settle ()
        end
      in
      settle ();
      check
        (Printf.sprintf "fd table flat after churn round %d" round)
        at_full (fd_table_size ())
    done;
    Array.iter Client.close conns;
    Client.close control;
    ignore (Server.stop ~drain:false server)
  end

let suite =
  [
    ( "net.listen",
      [
        Alcotest.test_case "live socket path is refused, stale reused" `Quick
          test_live_socket_path_refused;
        Alcotest.test_case "second server cannot steal the socket" `Quick
          test_second_server_refused;
        Alcotest.test_case "a file or directory at the path is refused, kept"
          `Quick test_non_socket_path_refused;
      ] );
    ( "net.event_loop",
      [
        Alcotest.test_case "raising handler costs only its connection" `Quick
          test_raising_handler_costs_its_connection;
        Alcotest.test_case "raising leg callback costs only its connection"
          `Quick test_raising_leg_callback_costs_its_connection;
      ] );
    ( "net.cloexec",
      [
        Alcotest.test_case "shard children inherit no sockets" `Quick
          test_shard_children_inherit_no_sockets;
      ] );
    ( "net.churn",
      [
        Alcotest.test_case ">= 1024 concurrent connections with churn" `Slow
          test_churn_beyond_fd_setsize;
      ] );
  ]
