(* The poll(2)-readiness connection core shared by [Server] and
   [Router]: one domain accepts, reads, parses, runs the handler inline
   and writes. A frame whose handler does a few microseconds of work
   would spend far more crossing to another domain and back.

   Discipline that keeps this simple and correct:

   - Nothing here is shared off the loop except [stopping], the wake
     pipe and the queue of posted closures (all atomic), so there is no
     lock. [wake_loop] and [post] are the only entry points safe off the
     loop; an off-loop job's completion is posted and runs on the loop.
   - At most ONE frame per connection is in flight: in the handler, or
     at a leg until its callback runs. This keeps replies in order and
     means the loop never parses ahead of a hello that is about to
     switch the connection's framing.
   - Backpressure is "stop polling readable": a connection stops being
     polled for POLLIN while its inbound buffer is full (>= max_in) or
     its outbound buffer is backed up (>= max_out, a slow reader
     pipelining requests), and parsing pauses with it. The kernel
     socket buffer then pushes back on the peer.
   - Legs are outbound sockets owned by one front connection and closed
     with it. They share the front connections' byte plumbing ([io]);
     only what happens to a parsed result differs: a front frame goes
     to the handler, a leg reply to the callback of the call waiting
     on it.
   - Every callback into other code runs under a handler that charges
     an escaping exception to the connection it ran for. *)

module Clock = Rrs_obs.Clock

(* One socket's bytes, in and out. [failed] holds the reason an I/O
   error (or an exception charged to the connection) ended it. *)
type io = {
  fd : Unix.file_descr;
  stream : Wire.Stream.t;
  out : string Queue.t; (* pending outbound chunks *)
  mutable out_off : int; (* written prefix of the head chunk *)
  mutable out_len : int; (* total unwritten outbound bytes *)
  mutable bytes_out : int; (* total bytes accepted for write *)
  mutable read_eof : bool; (* read(2) saw 0 / peer hung up *)
  mutable failed : string option;
}

type 'a conn = {
  io : io;
  data : 'a;
  owner : 'a t;
  mutable busy : bool; (* a frame is in the handler or at a leg *)
  mutable calls : int; (* legs of ours with a call in flight *)
  mutable own_legs : 'a leg list;
  mutable stream_done : bool; (* stream emitted Eof: all input handled *)
  mutable closed : bool;
}

and 'a leg = {
  lio : io;
  front : 'a conn;
  peer : Net.address;
  mutable connect_by : int64 option; (* Some deadline while connecting *)
  mutable waiter : ((Wire.frame, string) result -> unit) option;
  mutable reply_by : int64; (* the waiter's deadline *)
  mutable timeout_ms : int; (* the waiter's budget, for its message *)
  mutable broken : bool;
}

and 'a t = {
  conns : (Unix.file_descr, 'a conn) Hashtbl.t;
  legs : (Unix.file_descr, 'a leg) Hashtbl.t;
  mutable listen_fd : Unix.file_descr option;
  stopping : bool Atomic.t;
  wake_r : Unix.file_descr;
  wake_w : Unix.file_descr;
  woken : bool Atomic.t;
  posted : (unit -> unit) list Atomic.t; (* closures to run on the loop *)
  mutable jobs : int; (* off-loop jobs not yet completed *)
  on_open : unit -> 'a;
  on_close : 'a -> unit;
  handler : 'a conn -> Wire.read_result -> unit;
  max_in : int;
  max_out : int;
  mutable accept_paused : bool; (* EMFILE: skip the listener one cycle *)
  (* poll scratch, reused every iteration: no allocation per wait *)
  mutable p_fds : Unix.file_descr array;
  mutable p_events : int array;
  mutable p_revents : int array;
  scratch : Bytes.t;
}

let default_max_in = 64 * 1024
let default_max_out = 8 * 1024 * 1024

let create ?(max_in = default_max_in) ?(max_out = default_max_out) ~listen_fd
    ~stopping ~on_open ?(on_close = fun _ -> ()) ~handler () =
  let wake_r, wake_w = Unix.pipe ~cloexec:true () in
  Unix.set_nonblock wake_r;
  Unix.set_nonblock wake_w;
  Unix.set_nonblock listen_fd;
  {
    conns = Hashtbl.create 64;
    legs = Hashtbl.create 16;
    listen_fd = Some listen_fd;
    stopping;
    wake_r;
    wake_w;
    woken = Atomic.make false;
    posted = Atomic.make [];
    jobs = 0;
    on_open;
    on_close;
    handler;
    max_in;
    max_out;
    accept_paused = false;
    p_fds = Array.make 64 Unix.stdin;
    p_events = Array.make 64 0;
    p_revents = Array.make 64 0;
    scratch = Bytes.create (64 * 1024);
  }

let new_io fd =
  {
    fd;
    stream = Wire.Stream.create Wire.V1;
    out = Queue.create ();
    out_off = 0;
    out_len = 0;
    bytes_out = 0;
    read_eof = false;
    failed = None;
  }

let fail io reason = if io.failed = None then io.failed <- Some reason

(* ---- wakeup ---- *)

let wake_loop t =
  if not (Atomic.exchange t.woken true) then
    try ignore (Unix.write_substring t.wake_w "!" 0 1)
    with Unix.Unix_error _ -> ()

let drain_wake t =
  Atomic.set t.woken false;
  let continue = ref true in
  while !continue do
    match Unix.read t.wake_r t.scratch 0 64 with
    | 0 -> continue := false
    | _ -> ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        continue := false
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | exception Unix.Unix_error _ -> continue := false
  done

(* ---- bytes in and out (fds are non-blocking) ---- *)

(* Write as much of [s] from [off] as the socket accepts; returns the
   new offset. Fatal errors fail the io (EPIPE and resets are the
   peer's loss, not ours). *)
let rec write_some io s off =
  if off >= String.length s || io.failed <> None then off
  else
    match Unix.write_substring io.fd s off (String.length s - off) with
    | k -> write_some io s (off + k)
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> off
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> write_some io s off
    | exception Unix.Unix_error (e, _, _) ->
        fail io (Unix.error_message e);
        off

let flush_out io =
  let continue = ref true in
  while !continue && io.out_len > 0 && io.failed = None do
    let head = Queue.peek io.out in
    let off = write_some io head io.out_off in
    io.out_len <- io.out_len - (off - io.out_off);
    io.out_off <- off;
    if off >= String.length head then begin
      ignore (Queue.pop io.out);
      io.out_off <- 0
    end
    else continue := false (* EAGAIN: wait for POLLOUT *)
  done

(* Queue [data]; when nothing is queued ahead of it and [now], write
   straight to the socket — one syscall, no extra loop pass. *)
let push_out io data ~now =
  if io.failed = None then begin
    let len = String.length data in
    io.bytes_out <- io.bytes_out + len;
    let off = if now && io.out_len = 0 then write_some io data 0 else 0 in
    if off < len && io.failed = None then begin
      Queue.push data io.out;
      if io.out_len = 0 then io.out_off <- off;
      io.out_len <- io.out_len + (len - off)
    end
  end

let read_into t io =
  match Unix.read io.fd t.scratch 0 (Bytes.length t.scratch) with
  | 0 ->
      if not io.read_eof then begin
        io.read_eof <- true;
        Wire.Stream.feed_eof io.stream
      end
  | k -> Wire.Stream.feed io.stream t.scratch 0 k
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  | exception Unix.Unix_error (e, _, _) -> fail io (Unix.error_message e)

let close_fd fd = try Unix.close fd with Unix.Unix_error _ -> ()

(* ---- handler-side connection API ---- *)

let data c = c.data
let framing c = Wire.Stream.framing c.io.stream
let set_framing c framing = Wire.Stream.set_framing c.io.stream framing
let bytes_in c = Wire.Stream.fed c.io.stream
let bytes_out c = c.io.bytes_out
let send c data = if not c.closed then push_out c.io data ~now:true

(* ---- work off the loop ---- *)

let rec push_atomic cell x =
  let old = Atomic.get cell in
  if not (Atomic.compare_and_set cell old (x :: old)) then push_atomic cell x

let post t f =
  push_atomic t.posted f;
  wake_loop t

(* A posted closure that raises is logged; it has no connection to
   charge. *)
let run_posted t =
  if Atomic.get t.posted <> [] then
    List.iter
      (fun f ->
        try f ()
        with e ->
          Slog.error ~event:"posted_raised" [ ("exn", Printexc.to_string e) ])
      (List.rev (Atomic.exchange t.posted []))

(* The job runs on a thread of the loop's domain, which takes the
   runtime lock from the loop only while the job runs OCaml code; a job
   blocked in a system call leaves the loop free. Its completion is
   posted and runs on the loop, also after the connection closed:
   whatever the job started must be settled there. *)
let off_loop c job k =
  let t = c.owner in
  let run () =
    let result = match job () with v -> Ok v | exception e -> Error e in
    post t (fun () ->
        t.jobs <- t.jobs - 1;
        c.calls <- c.calls - 1;
        (try k result
         with e ->
           Slog.error ~event:"off_loop_reply_raised"
             [ ("exn", Printexc.to_string e) ];
           fail c.io "off-loop reply raised");
        if c.calls = 0 then c.busy <- false)
  in
  ignore (Thread.create run ());
  (* the completion runs on this loop, so it cannot overtake this *)
  t.jobs <- t.jobs + 1;
  c.calls <- c.calls + 1

(* ---- legs ---- *)

let now_plus_ms ms =
  Int64.add (Clock.now_ns ()) (Int64.mul (Int64.of_int ms) 1_000_000L)

let close_leg leg =
  if not leg.broken then begin
    leg.broken <- true;
    let c = leg.front in
    if leg.waiter <> None then begin
      leg.waiter <- None;
      c.calls <- c.calls - 1
    end;
    c.own_legs <- List.filter (fun l -> l != leg) c.own_legs;
    Hashtbl.remove c.owner.legs leg.lio.fd;
    close_fd leg.lio.fd
  end

let leg_broken leg = leg.broken
let set_leg_framing leg framing = Wire.Stream.set_framing leg.lio.stream framing

let dial c peer ~timeout_ms =
  match Net.start_connect peer with
  | exception Unix.Unix_error (e, _, _) -> Error (Net.cannot_connect peer e)
  | exception Failure message -> Error message
  | fd, in_progress ->
      let leg =
        {
          lio = new_io fd;
          front = c;
          peer;
          connect_by =
            (if in_progress then Some (now_plus_ms timeout_ms) else None);
          waiter = None;
          reply_by = 0L;
          timeout_ms = 0;
          broken = false;
        }
      in
      c.own_legs <- leg :: c.own_legs;
      Hashtbl.replace c.owner.legs fd leg;
      Ok leg

let call leg frame ~timeout_ms k =
  if leg.broken || leg.waiter <> None then
    invalid_arg "Event_loop.call: leg broken or busy";
  leg.waiter <- Some k;
  leg.timeout_ms <- timeout_ms;
  leg.reply_by <- now_plus_ms timeout_ms;
  leg.front.calls <- leg.front.calls + 1;
  push_out leg.lio
    (Wire.to_wire (Wire.Stream.framing leg.lio.stream) frame)
    ~now:(leg.connect_by = None)

(* Hand the waiting call its outcome. The front connection's frame is
   done once none of its calls is left in flight; a callback that
   raises costs the front connection. *)
let answer leg outcome =
  match leg.waiter with
  | None -> ()
  | Some k ->
      leg.waiter <- None;
      let c = leg.front in
      c.calls <- c.calls - 1;
      (match outcome with Error _ -> close_leg leg | Ok _ -> ());
      (try k outcome
       with e ->
         Slog.error ~event:"leg_reply_raised" [ ("exn", Printexc.to_string e) ];
         fail c.io "leg reply raised");
      if c.calls = 0 then c.busy <- false

(* A reply parsed out of the stream wins over an error behind it, as in
   {!Client}: the bytes arrived before the failure. *)
let settle_leg leg =
  if leg.waiter <> None then
    match Wire.Stream.next leg.lio.stream with
    | Some (Wire.Frame frame) -> answer leg (Ok frame)
    | Some (Wire.Malformed message) ->
        answer leg (Error ("malformed reply: " ^ message))
    | Some Wire.Eof -> answer leg (Error "connection closed by server")
    | None -> (
        match leg.lio.failed with
        | Some reason -> answer leg (Error ("connection lost: " ^ reason))
        | None -> ())
    | exception e ->
        answer leg (Error ("malformed reply: " ^ Printexc.to_string e))

let break_leg leg message =
  if leg.waiter <> None then answer leg (Error message) else close_leg leg

let connected leg =
  match Unix.getsockopt_error leg.lio.fd with
  | None ->
      leg.connect_by <- None;
      flush_out leg.lio
  | Some e -> break_leg leg (Net.cannot_connect leg.peer e)
  | exception Unix.Unix_error (e, _, _) ->
      break_leg leg (Net.cannot_connect leg.peer e)

let leg_event t leg re =
  if leg.connect_by <> None then connected leg
  else begin
    if re land Poll.pollout <> 0 then flush_out leg.lio;
    if re land (Poll.pollin lor Poll.pollhup lor Poll.pollerr) <> 0 then
      read_into t leg.lio
  end;
  if not leg.broken then settle_leg leg

(* Answer calls past their deadline (a connect past its budget fails
   like the kernel's own timeout would) and calls whose leg failed
   outside a poll event (a write error inside [call]). *)
let expire_legs t now =
  let due =
    Hashtbl.fold
      (fun _ leg due ->
        if
          leg.waiter <> None
          && (now >= leg.reply_by || leg.lio.failed <> None
             || match leg.connect_by with Some by -> now >= by | None -> false)
        then leg :: due
        else due)
      t.legs []
  in
  List.iter
    (fun leg ->
      match leg.connect_by with
      | Some by when now >= by ->
          answer leg (Error (Net.cannot_connect leg.peer Unix.ETIMEDOUT))
      | _ when now >= leg.reply_by ->
          answer leg
            (Error
               (Printf.sprintf "deadline exceeded after %d ms" leg.timeout_ms))
      | _ -> settle_leg leg)
    due

(* ms until the earliest leg deadline, capped at [cap]; 0 when a leg
   already failed and owes its call an answer. *)
let poll_timeout_ms t cap =
  let now = Clock.now_ns () in
  Hashtbl.fold
    (fun _ leg timeout ->
      if leg.waiter = None then timeout
      else if leg.lio.failed <> None then 0
      else
        let by =
          match leg.connect_by with
          | Some by -> min by leg.reply_by
          | None -> leg.reply_by
        in
        let ms = Int64.to_int (Int64.div (Int64.sub by now) 1_000_000L) + 1 in
        max 0 (min timeout ms))
    t.legs cap

(* ---- front connections ---- *)

(* Parse and handle frames until the connection is busy, out of
   complete frames, backed up or stopping (a stopping server finishes
   frames in flight but starts no new ones). *)
let serve_conn t c =
  let continue = ref true in
  while !continue do
    if
      c.busy || c.stream_done || c.closed || c.io.failed <> None
      || c.io.out_len >= t.max_out
      || Atomic.get t.stopping
    then continue := false
    else
      match Wire.Stream.next c.io.stream with
      | None -> continue := false
      | Some Wire.Eof -> c.stream_done <- true
      | Some result ->
          c.busy <- true;
          t.handler c result;
          if c.calls = 0 then c.busy <- false
  done

let serve_conn_safely t c =
  try serve_conn t c
  with e ->
    Slog.error ~event:"handler_crashed" [ ("exn", Printexc.to_string e) ];
    fail c.io "handler raised"

(* A failed connection closes at once, dropping any call in flight; a
   healthy one once its frame is done and its replies are out. *)
let closeable t c =
  (not c.closed)
  && (c.io.failed <> None
     || (not c.busy) && c.io.out_len = 0
        && (c.stream_done || Atomic.get t.stopping))

let close_conn t c =
  if not c.closed then begin
    c.closed <- true;
    List.iter close_leg c.own_legs;
    Hashtbl.remove t.conns c.io.fd;
    close_fd c.io.fd;
    try t.on_close c.data
    with e ->
      Slog.error ~event:"on_close_raised" [ ("exn", Printexc.to_string e) ]
  end

let interest_of t c =
  if c.io.failed <> None || c.closed then 0
  else begin
    let i = ref 0 in
    if
      (not c.io.read_eof)
      && (not (Atomic.get t.stopping))
      && Wire.Stream.buffered c.io.stream < t.max_in
      && c.io.out_len < t.max_out
    then i := Poll.pollin;
    if c.io.out_len > 0 then i := !i lor Poll.pollout;
    !i
  end

let leg_interest leg =
  if leg.broken then 0
  else if leg.connect_by <> None then Poll.pollout
  else
    (if leg.waiter <> None && not leg.lio.read_eof then Poll.pollin else 0)
    lor if leg.lio.out_len > 0 then Poll.pollout else 0

let add_conn t fd =
  match t.on_open () with
  | data ->
      Unix.set_nonblock fd;
      Hashtbl.replace t.conns fd
        {
          io = new_io fd;
          data;
          owner = t;
          busy = false;
          calls = 0;
          own_legs = [];
          stream_done = false;
          closed = false;
        }
  | exception e ->
      Slog.error ~event:"on_open_raised" [ ("exn", Printexc.to_string e) ];
      close_fd fd

let accept_batch t =
  match t.listen_fd with
  | None -> ()
  | Some lfd ->
      let continue = ref true in
      while !continue do
        match Unix.accept ~cloexec:true lfd with
        | fd, _addr -> add_conn t fd
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
          ->
            continue := false
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
        | exception Unix.Unix_error ((Unix.EMFILE | Unix.ENFILE), _, _) ->
            (* out of fds: stop polling the listener for one cycle so a
               full table cannot spin the loop; closes free fds soon *)
            t.accept_paused <- true;
            continue := false
        | exception Unix.Unix_error _ -> continue := false
      done

let conn_event t c re =
  if re land (Poll.pollerr lor Poll.pollnval) <> 0 then fail c.io "poll error"
  else begin
    if re land Poll.pollout <> 0 then flush_out c.io;
    if re land Poll.pollin <> 0 then read_into t c.io
    else if re land Poll.pollhup <> 0 && not c.io.read_eof then begin
      (* hangup while we were not reading (backpressure): the peer is
         fully gone, nothing more will arrive *)
      c.io.read_eof <- true;
      Wire.Stream.feed_eof c.io.stream
    end
  end

(* ---- the loop body ---- *)

let grow_scratch t need =
  if Array.length t.p_fds < need then begin
    let capacity = ref (max 64 (2 * Array.length t.p_fds)) in
    while !capacity < need do
      capacity := !capacity * 2
    done;
    t.p_fds <- Array.make !capacity Unix.stdin;
    t.p_events <- Array.make !capacity 0;
    t.p_revents <- Array.make !capacity 0
  end

(* One poll, then every ready fd. The 200 ms cap keeps stop and EMFILE
   recovery from waiting on a quiet poll set. *)
let wait_and_dispatch t =
  grow_scratch t (2 + Hashtbl.length t.conns + Hashtbl.length t.legs);
  let n = ref 0 in
  let add fd interest =
    if interest <> 0 then begin
      t.p_fds.(!n) <- fd;
      t.p_events.(!n) <- interest;
      incr n
    end
  in
  add t.wake_r Poll.pollin;
  (match t.listen_fd with
  | Some lfd when not t.accept_paused -> add lfd Poll.pollin
  | _ -> ());
  t.accept_paused <- false;
  Hashtbl.iter (fun fd c -> add fd (interest_of t c)) t.conns;
  Hashtbl.iter (fun fd leg -> add fd (leg_interest leg)) t.legs;
  let n = !n in
  let ready =
    try
      Poll.poll ~fds:t.p_fds ~events:t.p_events ~revents:t.p_revents ~n
        ~timeout_ms:(poll_timeout_ms t 200)
    with Unix.Unix_error (Unix.EINTR, _, _) -> 0
  in
  if ready > 0 then
    for i = 0 to n - 1 do
      let re = t.p_revents.(i) in
      if re <> 0 then begin
        let fd = t.p_fds.(i) in
        if fd = t.wake_r then drain_wake t
        else if t.listen_fd = Some fd then accept_batch t
        else
          match Hashtbl.find_opt t.conns fd with
          | Some c -> conn_event t c re
          | None -> (
              match Hashtbl.find_opt t.legs fd with
              | Some leg -> leg_event t leg re
              | None -> ())
      end
    done

let run t =
  let finished = ref false in
  while not !finished do
    (* Read once: a stop that lands mid-iteration must not end the loop
       before the listener is closed. *)
    let stopping = Atomic.get t.stopping in
    if stopping then
      Option.iter
        (fun lfd ->
          (* stop accepting; frames in flight finish, replies flush, and
             every connection closes as it goes idle *)
          close_fd lfd;
          t.listen_fd <- None)
        t.listen_fd;
    run_posted t;
    expire_legs t (Clock.now_ns ());
    let to_close = ref [] in
    Hashtbl.iter
      (fun _ c ->
        serve_conn_safely t c;
        if closeable t c then to_close := c :: !to_close)
      t.conns;
    List.iter (close_conn t) !to_close;
    if stopping && Hashtbl.length t.conns = 0 && t.jobs = 0 then
      finished := true
    else wait_and_dispatch t
  done;
  close_fd t.wake_r;
  close_fd t.wake_w
