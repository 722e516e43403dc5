(** The per-frame handler shared by {!Server} and {!Router}.

    For every result the {!Event_loop} reads it does the work that
    does not depend on what the frame asks for: span accounting
    ({!Metrics}), an [error] reply to malformed input, the [hello]
    negotiation and framing switch, capture of handler exceptions (the
    frame fails, the connection survives), the reply-size cap, and
    error/shed/rounds marking. A caller supplies only its [handle]
    function, its identity and its cap. *)

type outcome =
  | Reply of Wire.frame  (** the reply, ready now *)
  | Pending
      (** the reply comes later: the handle has started work on the
          loop (a shard leg's {!Event_loop.call}) whose callback will
          {!finish} the frame *)
  | Off_loop of (unit -> Wire.frame)
      (** the reply, computed by a job that may block in a system call,
          so it runs off the loop ({!Event_loop.off_loop}) *)

type 'a state
(** Per-connection handler state — the {!Event_loop} connection data:
    one reused {!Metrics.span} and lock-wait closure (so the hot path
    allocates nothing per request), the bytes-in watermark, the request
    still owed a reply, and the caller's own ['a]. *)

type 'a t = {
  role : string;
      (** ["server"] or ["router"], named in the unsupported-version
          error *)
  id : string;  (** identity surfaced in [hello_ok] *)
  max_wire : int;  (** highest framing negotiable; [1] pins /1 *)
  max_reply : int;  (** reply frame size cap, at most {!Wire.max_frame} *)
  metrics : Metrics.t;  (** where spans are recorded; also the uptime *)
  handle : 'a state Event_loop.conn -> Wire.frame -> outcome;
      (** the reply to one request frame; never sees [hello] *)
}

val state : 'a t -> 'a -> 'a state
(** Fresh state for a connection served by this handler, around the
    caller's part; the {!Event_loop} [on_open]. *)

val ext : 'a state -> 'a
(** The caller's part. *)

val on_lock : 'a state -> int -> unit
(** Adds µs of session-lock wait to the frame now being handled. *)

val reply_bytes : max_reply:int -> Wire.framing -> Wire.frame -> string
(** The wire bytes of a reply, or — when they exceed [max_reply] — of an
    [error] naming the limit: a peer's parser would reject the
    over-long frame as malformed. *)

val handle_event : 'a state Event_loop.conn -> Wire.read_result -> unit
(** The {!Event_loop} handler. *)

val finish : 'a state Event_loop.conn -> Wire.frame -> unit
(** Reply to the connection's {!Pending} frame: span accounting, the
    reply cap and the send, as for an immediate {!Reply}. A no-op when
    no reply is owed (the frame already failed), so a late callback
    cannot answer twice. Its [handle_us] runs from the frame's arrival
    to this call, so for the router it includes the shard round
    trip. *)
