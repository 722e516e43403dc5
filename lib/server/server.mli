(** The rrs session server ([rrs-wire/1] JSON by default, [rrs-wire/2]
    binary by negotiation).

    One {!Event_loop} domain owns every connection and answers each
    complete frame inline, through the shared {!Handler}, against the
    session manager (many named {!Session}s). The loop also owns the
    manager, every session, the admission gate and the metrics plane,
    so none of them has a lock; an [open] under [trace_dir] runs only
    its session's construction off the loop, with the name reserved
    meanwhile (a second [open] of it is answered "already open" at
    once). One loop per process: a
    long [step] batch or an autosnap write delays the process's other
    connections, and multi-core serving is one process per shard
    ([rrs shard-set]). Malformed input is answered with an [error] frame and
    the connection — and every session — survives; a frame-handler
    exception costs that one frame, never the server. A connection
    starts in /1 framing; a [hello] naming ["rrs-wire/2"] (unless
    [max_wire = 1]) answers [hello_ok] in the old framing and then
    switches the connection to the binary framing.

    {b Lifecycle}: [start] returns a handle for in-process use (tests,
    benches); [stop ~drain:true] closes the listeners, shuts down every
    live connection, joins the loop's domain and snapshots every open session
    into [snap_dir] (files named [<session>.sess.jsonl]). [serve] is the
    CLI entry: start, wait for SIGTERM/SIGINT, graceful drain. A
    restarted server with [restore] (default) reloads every snapshot in
    [snap_dir] before accepting connections, so served sessions continue
    across restarts with ledger continuity; a snapshot embedding a
    path-unsafe session name is refused with a log line, and two
    snapshots claiming the same name keep the first (by file order) and
    log the collision. A [close] deletes the session's drain snapshot,
    so a closed session never resurrects at the next restart.
    Client-requested [snapshot]-to-file writes are confined to
    [snap_dir] (bare path-safe file names only). *)

type address = Net.address = Unix_socket of string | Tcp of string * int

type config = {
  address : address;
  snap_dir : string option;  (** drain/restore directory *)
  trace_dir : string option;  (** per-session [rrs-events/2] streams *)
  queue_limit : int;  (** per-session admission bound; 0 = default *)
  max_wire : int;
      (** highest wire version the server will negotiate: [1] pins every
          connection to [rrs-wire/1]; anything else (the default, [2])
          also accepts [rrs-wire/2] upgrades *)
  checkpoint_every : int;
      (** session checkpoint interval; [0] =
          {!Session.default_checkpoint_every}. Sessions always snapshot
          as [rrs-snap/2]; restored [rrs-snap/1] files are upgraded *)
  max_reply : int;
      (** reply frame size cap in bytes; [0] = {!Wire.max_frame}
          (values above it are clamped). A reply that would exceed the
          cap — an inline snapshot of a deep session — is replaced by an
          [error] naming the limit, because the peer's parser could
          never receive the frame anyway; snapshot-to-file is the
          unbounded path *)
  metrics : address option;
      (** when set, a second listener on the event loop serving the
          merged metrics as Prometheus/OpenMetrics text over one-shot
          HTTP/1.1 exchanges (see {!Exposition}). Metrics are always
          collected; this only adds the exposition endpoint. A request
          head is capped at 8 KiB and the whole exchange at 1 s, so an
          idle or endless peer stalls neither other scrapes nor [stop].
          Scrapes are not requests: they leave the request spans and
          counters alone *)
  slow_threshold_us : int;
      (** slow-request log threshold in µs;
          [0] = {!Metrics.default_slow_threshold_us} *)
  slow_log : int;
      (** slow-request ring capacity;
          [0] = {!Metrics.default_slow_capacity} *)
  server_id : string;
      (** identity string surfaced in [hello_ok] (e.g. ["rrs/1.0.0"]) *)
  autosnap : bool;
      (** write each session's snapshot into [snap_dir] whenever a
          [step] crosses a checkpoint boundary, so a crashed process
          (kill -9 — no SIGTERM drain) loses at most one unsnapshotted
          window (≤ [checkpoint_every] rounds) per session. Requires
          [snap_dir]. Autosave failures are
          logged and never fail the step *)
  admission : Rrs_workload.Demand.t option;
      (** deployment capacity spec ([rrs-spec/1]) for the admission
          gate: its [n] (or, absent one, the analytically sized minimum
          — {!Rrs_analysis.Capacity.size}) times its [speed] is the
          supply budget in milli-jobs/round that declared sessions are
          priced against (see {!Admission}). [start] raises [Failure]
          when the spec carries no [n] and cannot be sized *)
  admission_mode : Admission.mode;
      (** [Off] (default): no gate even with a spec. [Warn]: violations
          are admitted and logged, gauges tell the truth. [Enforce]:
          an over-budget or analytically infeasible declaration draws
          [admission_reject] — for an [open], with no session state left
          behind — and enforce-mode feeds are policed against the
          declared envelope *)
}

val default_config : address -> config

val resolve_host : string -> (Unix.inet_addr, string) result
(** Resolve a dotted quad or host name; failures are an [Error] naming
    the host, never an exception. *)

type t

(** Bind, restore snapshots (unless [restore:false]), spawn the event
    loop's domain, return immediately.
    @raise Failure on an unresolvable TCP host (clean message naming the
    host). *)
val start : ?restore:bool -> config -> t

(** For [Tcp] with port 0: the port the kernel picked. *)
val bound_port : t -> int option

(** The metrics listener's port, when [config.metrics] is [Tcp]. *)
val bound_metrics_port : t -> int option

(** Stop accepting, shut down live connections, join the loop. With
    [drain] (default) every open session is first snapshotted to
    [snap_dir] (when one is set). Every open session is then released:
    its trace ends with an [aborted] record and is flushed and closed.
    Returns the number of sessions drained to disk. *)
val stop : ?drain:bool -> t -> int

(** [start] + block until SIGTERM/SIGINT + [stop ~drain:true]. Returns
    the number of sessions drained. *)
val serve : ?restore:bool -> config -> int
