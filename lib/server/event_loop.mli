(** The poll(2)-readiness connection core shared by [Server] and
    [Router]: one loop per process, run to completion.

    One domain ([run]) owns every fd in non-blocking mode. It accepts
    from the listen socket, reads bytes into each connection's
    incremental {!Wire.Stream}, runs the protocol [handler] inline on
    each complete frame, and writes the replies: {!send} goes straight
    to the socket when nothing is queued, else into a per-connection
    outbound buffer the loop drains on writability. {!Handler} is the
    per-frame handler both callers plug in. There is no dispatch queue,
    no worker domain and no lock: a frame is handled on the loop that
    read it, so a long handler (a big [step] batch, an autosnap write)
    delays every other connection of the process. Multi-core serving is
    one process per shard ([rrs shard-set]). Only work that may block
    for good in a system call goes {!off_loop}.

    The loop also owns what its handler serves (a server's sessions,
    admission gate and metrics plane, a router's shard health), so none
    of that needs a lock. The one entry point safe from another domain
    is {!wake_loop}.

    A handler that needs another server's answer (the router's shard
    legs) {!dial}s a {e leg}: an outbound connection owned by the front
    connection and polled by the same loop, with the same stream,
    outbound buffer and backpressure. {!call} sends one frame on it and
    the loop runs the callback when the reply, an error or the deadline
    arrives; the poll timeout honours the earliest leg deadline. Work
    no connection asked for (the router's health probes) runs on legs
    the loop owns ({!dial_own}), started from the [timer].

    Invariants:
    - at most one frame per connection is in flight (in the handler or
      at a leg), so replies keep their order and a hello's framing
      switch takes effect before the next frame is parsed;
    - a connection stops being polled readable while its inbound buffer
      is full or its outbound buffer is backed up (slow reader), and
      parsing pauses with it, so backpressure lands on the peer's
      socket buffer;
    - an exception escaping {!Wire.Stream.next}, the handler, a leg
      callback or [on_close] costs only that connection (it is closed,
      with its legs); the loop carries on;
    - only the loop opens or closes fds. ['a] is per-connection handler
      state, built by [on_open] and released by [on_close]. *)

type 'a t
(** The loop. ['a] is the per-connection handler state. *)

type 'a conn
(** One live front connection, as seen by the handler. *)

type 'a leg
(** An outbound connection, dialled for a front connection or the loop. *)

val create :
  ?max_in:int ->
  ?max_out:int ->
  listen_fd:Unix.file_descr ->
  ?http:Unix.file_descr * (unit -> string) ->
  ?timer:('a t -> int) ->
  stopping:bool Atomic.t ->
  on_open:(unit -> 'a) ->
  ?on_close:('a -> unit) ->
  handler:('a conn -> Wire.read_result -> unit) ->
  unit ->
  'a t
(** [create ~listen_fd ~stopping ~on_open ~handler ()] builds a loop
    serving [listen_fd] (made non-blocking; callers are expected to
    have set close-on-exec). The [handler] runs on the loop and
    receives only [Frame] and [Malformed] results — never [Eof]; it
    replies with {!send} (now, or from a leg callback) and must not
    close the fd. [on_open] builds per-connection state on accept;
    [on_close] releases it after the fd is closed. [max_in] (default
    64KiB) bounds buffered inbound bytes; [max_out] (default 8MiB)
    bounds queued outbound bytes — beyond either, the connection stops
    being polled readable.

    [http] is a second listener and its responder. Its connections go
    through the same accept, read, backpressure and write path, but
    carry one exchange each, never seen by [handler]: a request head
    ({!Wire.Stream.create_http}) is answered on the loop with the
    responder's bytes (a whole HTTP response), then the connection
    closes. A head over 8 KiB closes it unanswered, and so does a 1 s
    deadline on the whole exchange.

    [timer] runs on the loop before every wait until stopping, and
    returns the ms until it wants to run again ([max_int]: never).

    Setting [stopping] and calling {!wake_loop} shuts down: the
    listeners close, the loop's own legs close (a call in flight is
    dropped), frames in flight finish (legs within their deadlines),
    replies flush, every connection closes, then [run] returns. *)

val run : 'a t -> unit
(** The loop body. Returns once stopping is set, every connection has
    closed and every {!off_loop} job has completed. *)

val wake_loop : 'a t -> unit
(** Wake a loop parked in poll (used with [stopping] to shut down);
    safe from any domain. *)

(** {1 Handler-side connection API} *)

val send : 'a conn -> string -> unit
(** Queue pre-framed bytes for the peer. Never blocks: writes what the
    socket accepts now, buffers the rest. Dropped silently if the
    connection already failed. *)

val data : 'a conn -> 'a

val framing : 'a conn -> Wire.framing

val set_framing : 'a conn -> Wire.framing -> unit
(** Switch the connection's wire framing from the next frame on (the
    hello negotiation). *)

val bytes_in : 'a conn -> int
(** Total bytes read from this connection ({!Wire.Stream.fed}). *)

val bytes_out : 'a conn -> int
(** Total bytes accepted for write to this connection. *)

val off_loop :
  'a conn -> (unit -> 'b) -> (('b, exn) result -> unit) -> unit
(** [off_loop conn job k] runs [job] on a thread of its own, for work
    that may block in a system call for an unbounded time (opening a
    file that turns out to be a FIFO), and then [k] with its result on
    the loop. [job] must touch nothing the loop owns. The connection
    parses no further frame meanwhile; the loop serves the others. [k]
    runs even if the connection closed meanwhile ({!send} then drops
    its reply), so it can settle what [job] started. *)

(** {1 Legs} *)

val dial : 'a conn -> Net.address -> timeout_ms:int -> ('a leg, string) result
(** Start a non-blocking connect to [address] for this connection; the
    connect must complete within [timeout_ms]. The leg speaks
    [rrs-wire/1] until {!set_leg_framing}, and is closed with its
    connection. [Error] (worded by {!Net.cannot_connect}) when the
    connect fails at once. *)

val dial_own : 'a t -> Net.address -> timeout_ms:int -> ('a leg, string) result
(** {!dial} for the loop itself: no connection owns the leg or waits on
    its calls, a callback that raises is only logged, and the leg is
    closed (its call dropped) when the loop stops. *)

val call :
  'a leg ->
  Wire.frame ->
  timeout_ms:int ->
  ((Wire.frame, string) result -> unit) ->
  unit
(** Send [frame] in the leg's framing and run the callback on the loop
    with its reply, within [timeout_ms]. Errors carry {!Client}'s
    wording (["cannot connect: ..."], ["deadline exceeded after N ms"],
    ["connection closed by server"], ["connection lost: ..."],
    ["malformed reply: ..."]) and leave the leg broken. The callback
    never runs inside [call]. While a call is in flight, the owning
    connection parses no further frame.
    @raise Invalid_argument on a broken leg or one with a call in
    flight. *)

val set_leg_framing : 'a leg -> Wire.framing -> unit
(** Switch the leg's framing (after a successful [hello]). *)

val leg_broken : 'a leg -> bool
(** True once an error or {!close_leg} closed the leg; dial a new one. *)

val close_leg : 'a leg -> unit
(** Close the leg now; a call in flight is dropped without its
    callback. *)
