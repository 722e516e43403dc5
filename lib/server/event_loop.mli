(** The poll(2)-readiness connection core shared by [Server] and
    [Router].

    One event domain ([run]) owns every connection fd in non-blocking
    mode: it accepts from the listen socket, reads bytes into each
    connection's incremental {!Wire.Stream}, and hands complete frames
    (never fds) to worker domains ([dispatch_loop]) that run the
    protocol [handler]. Replies go out through {!send}: straight to the
    socket when nothing is queued, else via a per-connection outbound
    buffer the event domain drains on writability. {!Handler} is the
    per-frame handler both callers plug in.

    Connection concurrency is capped by the fd limit, not by the
    worker-domain count, and no wait uses select(2) (which fails for
    any fd >= FD_SETSIZE).

    Invariants:
    - at most one parsed-but-unhandled frame per connection, so
      per-connection handling is serialized (reply order preserved,
      hello framing switches race-free);
    - a connection stops being polled readable while its inbound buffer
      is full or its outbound buffer is backed up (slow reader), so
      backpressure lands on the peer's socket buffer;
    - only the event domain opens or closes fds. ['a] is per-connection
      handler state, built by [on_open] and released by [on_close]. *)

type 'a t
(** The loop. ['a] is the per-connection handler state. *)

type 'a conn
(** One live connection, as seen by the handler. *)

val create :
  ?max_in:int ->
  ?max_out:int ->
  listen_fd:Unix.file_descr ->
  stopping:bool Atomic.t ->
  on_open:(unit -> 'a) ->
  ?on_close:('a -> unit) ->
  handler:(worker:int -> 'a conn -> Wire.read_result -> unit) ->
  unit ->
  'a t
(** [create ~listen_fd ~stopping ~on_open ~handler ()] builds a loop
    serving [listen_fd] (made non-blocking; callers are expected to
    have set close-on-exec). The [handler] runs on worker domains and
    receives only [Frame] and [Malformed] results — never [Eof]; it
    replies with {!send} and must not close the fd. [on_open] builds
    per-connection state on accept; [on_close] releases it after the fd
    is closed. [max_in] (default 64KiB) bounds buffered inbound bytes;
    [max_out] (default 8MiB) bounds queued outbound bytes — beyond
    either, the connection stops being polled readable.

    Setting [stopping] and calling {!wake_loop} shuts down: the
    listener closes, in-flight requests finish, replies flush, every
    connection closes, then [run] and all [dispatch_loop]s return. *)

val run : 'a t -> unit
(** The event-domain body. Returns once stopping is set and every
    connection has closed. *)

val dispatch_loop : 'a t -> worker:int -> unit
(** A worker-domain body: pops complete frames and runs the handler
    until shutdown. A handler exception costs that connection (it is
    closed), never the worker. *)

val wake_loop : 'a t -> unit
(** Wake a loop parked in poll (used with [stopping] to shut down). *)

(** {1 Handler-side connection API} *)

val send : 'a conn -> string -> unit
(** Queue pre-framed bytes for the peer. Never blocks: writes what the
    socket accepts now, buffers the rest. Dropped silently if the
    connection already failed. *)

val data : 'a conn -> 'a
val fd : 'a conn -> Unix.file_descr

val framing : 'a conn -> Wire.framing

val set_framing : 'a conn -> Wire.framing -> unit
(** Switch the connection's wire framing from the next frame on (the
    hello negotiation). Safe because no further frame is parsed while
    the hello is in the handler. *)

val bytes_in : 'a conn -> int
(** Total bytes read from this connection ({!Wire.Stream.fed}). *)

val bytes_out : 'a conn -> int
(** Total bytes accepted for write to this connection. *)

val queued_ns : 'a conn -> int64
(** When the frame now in the handler was dispatched — the handler's
    queue-wait reference point for span accounting. *)

(** {1 Introspection} *)

val conn_count : 'a t -> int
val peak_conns : 'a t -> int
