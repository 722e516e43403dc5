(* The poll(2)-readiness connection core shared by [Server] and
   [Router].

   One event domain owns every connection fd in non-blocking mode: it
   accepts, reads, feeds bytes into each connection's [Wire.Stream],
   and hands COMPLETE frames (never fds) to the worker-domain pool
   through a dispatch queue. Workers run the protocol handler and queue
   replies onto per-connection outbound buffers, which the event domain
   drains on writability (with a direct-write fast path when the buffer
   is empty, so an idle socket costs no extra wakeup).

   Discipline that keeps this simple and correct:

   - One global mutex guards all connection state and the dispatch
     queue. The loop releases it only while parked in poll; workers
     hold it only for queue pops and buffer pushes. A self-pipe wakes
     the parked loop when a worker finishes or queues bytes.
   - At most ONE parsed-but-unhandled frame per connection. This
     serializes request handling per connection (replies keep their
     order), and means the loop never parses ahead of a hello that is
     about to switch the connection's framing.
   - Backpressure is "stop polling readable": a connection stops being
     polled for POLLIN while its inbound buffer is full (>= max_in) or
     its outbound buffer is backed up (>= max_out, a slow reader
     pipelining requests), and parsing pauses with it. The kernel
     socket buffer then pushes back on the peer.
   - Only the event domain opens, closes or polls fds. Workers signal
     intent (dead/done) and the loop acts on it, so an fd number can
     never be closed and reused while another domain might touch it. *)

module Clock = Rrs_obs.Clock

type 'a conn = {
  fd : Unix.file_descr;
  stream : Wire.Stream.t;
  data : 'a;
  owner : 'a t;
  mutable busy : bool; (* a frame of ours is queued or in a handler *)
  mutable read_eof : bool; (* read(2) saw 0 / peer hung up *)
  mutable stream_done : bool; (* stream emitted Eof: all input handled *)
  mutable dead : bool; (* I/O error; close as soon as not busy *)
  mutable closed : bool;
  out : string Queue.t; (* pending outbound chunks *)
  mutable out_off : int; (* written prefix of the head chunk *)
  mutable out_len : int; (* total unwritten outbound bytes *)
  mutable bytes_out : int; (* total bytes accepted for write *)
  mutable enq_ns : int64; (* when the pending frame was dispatched *)
}

and 'a t = {
  mutex : Mutex.t;
  nonempty : Condition.t;
  dq : ('a conn * Wire.read_result) Queue.t;
  mutable dq_closed : bool;
  conns : (Unix.file_descr, 'a conn) Hashtbl.t;
  mutable listen_fd : Unix.file_descr option;
  stopping : bool Atomic.t;
  wake_r : Unix.file_descr;
  wake_w : Unix.file_descr;
  mutable woken : bool;
  on_open : unit -> 'a;
  on_close : 'a -> unit;
  handler : worker:int -> 'a conn -> Wire.read_result -> unit;
  max_in : int;
  max_out : int;
  mutable accept_paused : bool; (* EMFILE: skip the listener one cycle *)
  mutable peak : int;
  mutable opened : int;
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
    mutex = Mutex.create ();
    nonempty = Condition.create ();
    dq = Queue.create ();
    dq_closed = false;
    conns = Hashtbl.create 64;
    listen_fd = Some listen_fd;
    stopping;
    wake_r;
    wake_w;
    woken = false;
    on_open;
    on_close;
    handler;
    max_in;
    max_out;
    accept_paused = false;
    peak = 0;
    opened = 0;
    p_fds = Array.make 64 Unix.stdin;
    p_events = Array.make 64 0;
    p_revents = Array.make 64 0;
    scratch = Bytes.create (64 * 1024);
  }

(* ---- wakeup (mutex held) ---- *)

let wake t =
  if not t.woken then begin
    t.woken <- true;
    try ignore (Unix.write_substring t.wake_w "!" 0 1)
    with Unix.Unix_error _ -> ()
  end

let drain_wake t =
  t.woken <- false;
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

(* ---- outbound writes (mutex held; fd is non-blocking) ---- *)

(* Write as much of [s] from [off] as the socket accepts; returns the
   new offset. Fatal errors mark the connection dead (EPIPE and resets
   are the peer's loss, not ours). *)
let rec write_some c s off =
  if off >= String.length s || c.dead then off
  else
    match Unix.write_substring c.fd s off (String.length s - off) with
    | k -> write_some c s (off + k)
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> off
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> write_some c s off
    | exception Unix.Unix_error _ ->
        c.dead <- true;
        off

let flush_out c =
  let continue = ref true in
  while !continue && c.out_len > 0 && not c.dead do
    let head = Queue.peek c.out in
    let off = write_some c head c.out_off in
    c.out_len <- c.out_len - (off - c.out_off);
    c.out_off <- off;
    if off >= String.length head then begin
      ignore (Queue.pop c.out);
      c.out_off <- 0
    end
    else continue := false (* EAGAIN: wait for POLLOUT *)
  done

(* ---- worker-facing API ---- *)

let data c = c.data
let fd c = c.fd
let framing c = Wire.Stream.framing c.stream

let set_framing c framing =
  Mutex.lock c.owner.mutex;
  Wire.Stream.set_framing c.stream framing;
  Mutex.unlock c.owner.mutex

let bytes_in c = Wire.Stream.fed c.stream

let bytes_out c =
  Mutex.lock c.owner.mutex;
  let n = c.bytes_out in
  Mutex.unlock c.owner.mutex;
  n

let queued_ns c = c.enq_ns

(* Queue [data] for the peer. The fast path writes straight to the
   socket when nothing is already queued — one syscall, no event-loop
   round trip — which is what keeps request/reply latency at parity
   with the old blocking write. *)
let send c data =
  let t = c.owner in
  Mutex.lock t.mutex;
  if not (c.closed || c.dead) then begin
    let len = String.length data in
    c.bytes_out <- c.bytes_out + len;
    if c.out_len = 0 then begin
      let off = write_some c data 0 in
      if c.dead then wake t
      else if off < len then begin
        Queue.push data c.out;
        c.out_off <- off;
        c.out_len <- len - off;
        wake t (* the parked loop must add POLLOUT interest *)
      end
    end
    else begin
      Queue.push data c.out;
      c.out_len <- c.out_len + len
      (* no wake: POLLOUT interest is already active for this conn *)
    end
  end;
  Mutex.unlock t.mutex

(* ---- dispatch: the worker-domain body ---- *)

let dispatch_loop t ~worker =
  let rec loop () =
    Mutex.lock t.mutex;
    while Queue.is_empty t.dq && not t.dq_closed do
      Condition.wait t.nonempty t.mutex
    done;
    if Queue.is_empty t.dq then Mutex.unlock t.mutex (* closed and drained *)
    else begin
      let c, result = Queue.pop t.dq in
      Mutex.unlock t.mutex;
      (try t.handler ~worker c result
       with e ->
         (* handlers do their own per-request error capture; anything
            that escapes costs this connection, never the worker *)
         Slog.error ~event:"handler_crashed"
           [ ("worker", Slog.int worker); ("exn", Printexc.to_string e) ];
         Mutex.lock t.mutex;
         c.dead <- true;
         Mutex.unlock t.mutex);
      Mutex.lock t.mutex;
      c.busy <- false;
      (* Wake the loop only when it has something to do for this conn:
         re-parse buffered bytes (a pipelining client's next frame is
         already here and only the loop can dispatch it) or close it
         (eof/error/drain). A request/reply client leaves nothing
         buffered, and its next request wakes poll through POLLIN —
         which stays armed across busy — so the common case costs no
         wakeup round trip at all. *)
      if
        Wire.Stream.buffered c.stream > 0
        || c.read_eof || c.stream_done || c.dead
        || Atomic.get t.stopping
      then wake t;
      Mutex.unlock t.mutex;
      loop ()
    end
  in
  loop ()

(* ---- event-domain internals (mutex held) ---- *)

(* Parse at most one frame out of the connection's buffer and dispatch
   it. Gated on busy (one in flight), outbound backpressure, and
   stopping (a stopping server finishes in-flight requests but starts
   no new ones — the old "check stopping before the next read"). *)
let try_parse t c =
  if
    (not c.busy) && (not c.stream_done) && (not c.dead) && (not c.closed)
    && c.out_len < t.max_out
    && not (Atomic.get t.stopping)
  then
    match Wire.Stream.next c.stream with
    | None -> ()
    | Some Wire.Eof -> c.stream_done <- true
    | Some result ->
        c.busy <- true;
        c.enq_ns <- Clock.now_ns ();
        Queue.push (c, result) t.dq;
        Condition.signal t.nonempty

let closeable t c =
  (not c.busy) && (not c.closed)
  && (c.dead
     || (c.stream_done && c.out_len = 0)
     || (Atomic.get t.stopping && c.out_len = 0))

let close_conn t c =
  if not c.closed then begin
    c.closed <- true;
    Hashtbl.remove t.conns c.fd;
    (try Unix.close c.fd with Unix.Unix_error _ -> ());
    try t.on_close c.data
    with e ->
      Slog.error ~event:"on_close_raised" [ ("exn", Printexc.to_string e) ]
  end

let interest_of t c =
  if c.dead || c.closed then 0
  else begin
    let i = ref 0 in
    if
      (not c.read_eof)
      && (not (Atomic.get t.stopping))
      && Wire.Stream.buffered c.stream < t.max_in
      && c.out_len < t.max_out
    then i := Poll.pollin;
    if c.out_len > 0 then i := !i lor Poll.pollout;
    !i
  end

let set_read_eof c =
  if not c.read_eof then begin
    c.read_eof <- true;
    Wire.Stream.feed_eof c.stream
  end

let read_into t c =
  match Unix.read c.fd t.scratch 0 (Bytes.length t.scratch) with
  | 0 -> set_read_eof c
  | k -> Wire.Stream.feed c.stream t.scratch 0 k
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  | exception Unix.Unix_error _ -> c.dead <- true

let add_conn t fd =
  Unix.set_nonblock fd;
  let c =
    {
      fd;
      stream = Wire.Stream.create Wire.V1;
      data = t.on_open ();
      owner = t;
      busy = false;
      read_eof = false;
      stream_done = false;
      dead = false;
      closed = false;
      out = Queue.create ();
      out_off = 0;
      out_len = 0;
      bytes_out = 0;
      enq_ns = 0L;
    }
  in
  Hashtbl.replace t.conns fd c;
  t.opened <- t.opened + 1;
  if Hashtbl.length t.conns > t.peak then t.peak <- Hashtbl.length t.conns

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

let handle_conn_event t c re =
  if re land (Poll.pollerr lor Poll.pollnval) <> 0 then c.dead <- true
  else begin
    if re land Poll.pollout <> 0 then flush_out c;
    if re land Poll.pollin <> 0 then read_into t c
    else if re land Poll.pollhup <> 0 then
      (* hangup while we were not reading (backpressure): the peer is
         fully gone, nothing more will arrive *)
      set_read_eof c
  end

let conn_count t =
  Mutex.lock t.mutex;
  let n = Hashtbl.length t.conns in
  Mutex.unlock t.mutex;
  n

let peak_conns t =
  Mutex.lock t.mutex;
  let n = t.peak in
  Mutex.unlock t.mutex;
  n

let wake_loop t =
  Mutex.lock t.mutex;
  wake t;
  Mutex.unlock t.mutex

(* ---- the event domain body ---- *)

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

let run t =
  let finished = ref false in
  while not !finished do
    Mutex.lock t.mutex;
    if Atomic.get t.stopping then begin
      (* stop accepting; in-flight requests finish, replies flush, and
         every connection closes as it goes idle *)
      match t.listen_fd with
      | Some lfd ->
          (try Unix.close lfd with Unix.Unix_error _ -> ());
          t.listen_fd <- None
      | None -> ()
    end;
    (* parse / close pass *)
    let to_close = ref [] in
    Hashtbl.iter
      (fun _ c ->
        try_parse t c;
        if closeable t c then to_close := c :: !to_close)
      t.conns;
    List.iter (close_conn t) !to_close;
    if Atomic.get t.stopping && Hashtbl.length t.conns = 0 then begin
      t.dq_closed <- true;
      Condition.broadcast t.nonempty;
      Mutex.unlock t.mutex;
      finished := true
    end
    else begin
      grow_scratch t (2 + Hashtbl.length t.conns);
      let n = ref 0 in
      let add fd interest =
        t.p_fds.(!n) <- fd;
        t.p_events.(!n) <- interest;
        incr n
      in
      add t.wake_r Poll.pollin;
      (match t.listen_fd with
      | Some lfd when not t.accept_paused -> add lfd Poll.pollin
      | _ -> ());
      t.accept_paused <- false;
      Hashtbl.iter
        (fun fd c ->
          let interest = interest_of t c in
          if interest <> 0 then add fd interest)
        t.conns;
      let n = !n in
      Mutex.unlock t.mutex;
      let ready =
        (* 200ms cap: stop and EMFILE recovery never wait on a quiet
           poll set *)
        try
          Poll.poll ~fds:t.p_fds ~events:t.p_events ~revents:t.p_revents ~n
            ~timeout_ms:200
        with Unix.Unix_error (Unix.EINTR, _, _) -> 0
      in
      Mutex.lock t.mutex;
      if ready > 0 then
        for i = 0 to n - 1 do
          let re = t.p_revents.(i) in
          if re <> 0 then begin
            let fd = t.p_fds.(i) in
            if fd = t.wake_r then drain_wake t
            else if t.listen_fd = Some fd then accept_batch t
            else
              match Hashtbl.find_opt t.conns fd with
              | Some c -> handle_conn_event t c re
              | None -> ()
          end
        done;
      Mutex.unlock t.mutex
    end
  done;
  (try Unix.close t.wake_r with Unix.Unix_error _ -> ());
  try Unix.close t.wake_w with Unix.Unix_error _ -> ()
