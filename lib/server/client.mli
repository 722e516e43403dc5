(** Blocking wire client: one connection, synchronous request/reply.
    Starts in [rrs-wire/1]; {!negotiate} can upgrade the connection to
    the /2 binary framing. Used by [rrs client], [rrs shard-set]'s
    readiness wait, the E18/E21 load harnesses and the protocol
    tests.

    Resilience: {!connect} takes an optional connect budget, every
    {!call} takes an optional per-call deadline (poll-based — the
    client never blocks past it), and {!Endpoint} layers bounded
    retry with jittered exponential backoff on top, restricted to
    frames whose replay is safe (see {!idempotent}). *)

type t

exception Timeout
(** Raised internally when a per-call deadline expires; surfaced by
    {!call}/{!read_reply} as a clean [Error _]. *)

(** @raise Failure on an unresolvable TCP host (clean message naming
    the host).
    @raise Unix.Unix_error on connection failure; [timeout_ms] bounds
    the connect itself (non-blocking connect + poll). *)
val connect : ?timeout_ms:int -> Server.address -> t

val try_connect : ?timeout_ms:int -> Server.address -> (t, string) result
(** Like {!connect} but never raises: all failures become a one-line
    ["cannot connect: ..."] message naming the address. *)

val await_listening :
  ?deadline_ms:int ->
  ?between:(unit -> unit) ->
  Server.address list ->
  (unit, (Server.address * string) list) result
(** Wait until every address accepts a connection (each probe is closed
    at once). All addresses are probed together; between rounds the
    wait runs [between] (a supervisor polls its children there), then
    sleeps a backoff that starts at 0.25 ms and doubles up to 50 ms.
    [Ok] as soon as the last one accepts; [Error] once [deadline_ms]
    (default 5000) has passed, never before, with each address still
    refusing and its {!try_connect} message. *)

(** Wrap an already-connected socket. *)
val connect_fd : Unix.file_descr -> t

(** [negotiate t ~wire] performs the [hello] exchange for wire version
    [1] or [2]; on a successful /2 negotiation the connection switches
    to the binary framing. *)
val negotiate : t -> wire:int -> (unit, string) result

val hello : wire:int -> (Wire.frame, string) result
(** The [hello] request {!negotiate} sends for wire version [wire]
    ([Error] for a version other than 1 or 2). *)

val hello_outcome :
  wire:int -> (Wire.frame, string) result -> (unit, string) result
(** Whether a [hello] reply (or the transport error in its place)
    completes the negotiation of [wire]; the [Error] says why not.
    Callers that run the exchange themselves, like the router's shard
    legs and health probes, share {!negotiate}'s verdicts and wording. *)

(** The wire version currently in effect (1 until a /2 negotiation
    succeeds). *)
val wire_version : t -> int

val bytes_sent : t -> int
(** Wire bytes written so far (frames and raw lines). *)

val bytes_received : t -> int
(** Wire bytes pulled from the server so far. *)

val is_broken : t -> bool
(** True once a deadline, EOF or I/O error left the connection's
    framing state indeterminate; callers should reconnect. *)

val send : t -> Wire.frame -> unit

(** Write a raw (pre-framed or deliberately malformed) line. A missing
    trailing newline is added so the server stays synced under either
    framing. *)
val send_raw : t -> string -> unit

val read_reply : ?deadline_ms:int -> t -> (Wire.frame, string) result
(** Read one reply. With [deadline_ms] the read is bounded: expiry
    yields [Error "deadline exceeded ..."] and marks the connection
    {!is_broken}. *)

(** [send] + [read_reply]. Never raises on I/O failure: lost
    connections surface as [Error _] and mark the client broken. *)
val call : ?deadline_ms:int -> t -> Wire.frame -> (Wire.frame, string) result

val close : t -> unit

(** {1 Retry policy} *)

val idempotent : Wire.frame -> bool
(** True for requests whose replay cannot change server state
    ([hello]/[stats]/[metrics]). [feed]/[step] and the other mutating
    frames must only be retried when the connection attempt itself
    failed, before any request bytes were written. *)

type retry
(** Bounded retry with jittered exponential backoff. *)

val retry_policy :
  ?attempts:int ->
  ?base_ms:int ->
  ?max_ms:int ->
  ?seed:int ->
  ?sleep_ms:(int -> unit) ->
  unit ->
  retry
(** [attempts] total tries (default 3, min 1); backoff after failed
    attempt [n] is [min (base_ms * 2^(n-1)) max_ms] plus jitter up to
    half that. [seed] makes the jitter stream deterministic; [sleep_ms]
    lets tests observe sleeps instead of waiting them out. *)

val no_retry : retry
(** Single attempt, no sleeping. *)

val backoff_ms : retry -> attempt:int -> int
(** The next backoff for failed attempt [attempt] (1-based). Advances
    the policy's jitter stream. *)

(** {1 Resilient endpoint}

    A reconnecting wrapper around one server address: lazy
    (re)connection with the configured wire version, a per-call
    deadline, and bounded retry under a {!retry} policy. *)
module Endpoint : sig
  type conn = t
  type t

  val create :
    ?timeout_ms:int -> ?retry:retry -> ?wire:int -> Server.address -> t

  val connection : t -> (conn, string) result
  (** The live connection, (re)connecting and negotiating as needed. *)

  val call : t -> Wire.frame -> (Wire.frame, string) result
  (** Call with deadline and retry. Connect failures are retried for
      every frame (no bytes were written); post-send failures are
      retried only for {!idempotent} frames, so rounds are never
      double-applied. *)

  val drop : t -> unit
  (** Close the cached connection (a fresh one is made on next call). *)

  val bytes_sent : t -> int
  (** Wire bytes written over the endpoint's whole lifetime — closed
      connections plus the live one — so the total survives
      reconnects. *)

  val bytes_received : t -> int
  (** Wire bytes read, accumulated the same way. *)

  val close : t -> unit
end
