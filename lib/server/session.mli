(** One named scheduler session: a {!Rrs_sim.Stepper} plus admission
    control.

    {b Ownership}: a session has one owner and no lock. In a running
    server that owner is the {!Event_loop}: every operation on a live
    session runs on the loop (a frame's handler, an on-loop
    continuation, a metrics scrape). Restore
    runs before the loop starts and drain after it has been joined, so
    they never overlap it. Only {!create} may run elsewhere (a trace-file
    [open(2)] can block), and it touches no shared state.

    {b Admission control}: [feed] is bounded by [queue_limit] jobs of
    fed-but-unstepped backlog. A feed that would exceed it is {e shed} —
    refused whole, counted in the session's [shed] total, and answered
    explicitly; the session itself is never harmed. Conservation,
    checked by the E18 harness:
    [fed = accepted + shed] and
    [accepted = execs + drops + pool pending + buffered].

    {b Snapshot} (schema [rrs-sess/1]): one header line carrying the
    session name, policy key, queue limit, fed/shed totals and the
    embedded stepper document's version ([snap_version]), followed by
    that document. Sessions always write [rrs-snap/2] and
    ["snap_version":2]; [restore] also reads pre-/2 files, whose header
    declares 1 or omits the field and whose body is [rrs-snap/1].
    [restore] cross-checks the declared version against the schema the
    body actually carries — a mismatch is a spliced or corrupt file,
    rejected before any replay — then rebuilds the stepper by
    deterministic replay (see {!Rrs_sim.Stepper}). Sessions default to
    a checkpoint every {!default_checkpoint_every} rounds, which bounds
    snapshot size and restore time by the interval instead of the
    session's lifetime. *)

val snapshot_schema : string
(** ["rrs-sess/1"]. *)

val default_queue_limit : int
(** Backlog bound used when [create]'s [queue_limit] is 0 or absent. *)

val default_checkpoint_every : int
(** Checkpoint interval of a session when [checkpoint_every] is absent,
    and of a restored [rrs-snap/1] document. *)

type t

(** [create ~name ~policy config] opens a session at round 0. [policy]
    is a registry key ({!Rrs_core.Policies}); [trace_dir], when given,
    streams the session's [rrs-events/2] document to
    [<trace_dir>/<name>.events.jsonl]; without it the session keeps no
    event log, so its memory does not grow with the rounds served
    ({!restore} likewise). [checkpoint_every] (default
    {!default_checkpoint_every}; 0 = never) is the stepper's checkpoint
    interval. Errors (unknown policy, invalid config, a negative
    interval, a trace file that cannot be opened) are returned, never
    raised. *)
val create :
  name:string ->
  policy:string ->
  ?queue_limit:int ->
  ?checkpoint_every:int ->
  ?trace_dir:string ->
  Rrs_sim.Stepper.config ->
  (t, string) result

val name : t -> string
val policy_key : t -> string
val queue_limit : t -> int

(** The stepper configuration the session runs ([n], [delta], bounds,
    [speed], horizon) — the admission gate checks re-declarations
    against it. *)
val config : t -> Rrs_sim.Stepper.config

val num_colors : t -> int

(** The stepper's checkpoint interval (0 = never). *)
val checkpoint_every : t -> int

(** {2 Admission declaration}

    A session may carry a declared arrival envelope ({!Wire.decl}):
    installed at [open] (or re-declared by a later [feed]) when the
    server runs with [--admission]. With [police] set (the server's
    enforce mode) every [feed] is checked against the cumulative
    envelope [burst_l + floor ((round + 1) * rate_l / den)] — exactly
    what a spec-conformant generator has produced through the current
    round, so honest traffic is never policed — and an over-envelope
    feed is refused whole ({!Policed}), counted like a shed. The
    declaration, the envelope cursor and the policed total persist in
    the session snapshot header (optional fields; pre-admission
    documents restore as undeclared). *)

(** Install or replace the declared envelope. The caller validates the
    declaration's shape ({!Admission.validate_decl}) first. *)
val declare :
  t -> decl:Wire.decl -> police:bool -> unit

val declaration : t -> Wire.decl option

(** Jobs refused by the envelope so far (a subset of the shed total). *)
val policed : t -> int

type feed_result =
  | Accepted of { accepted : int; buffered : int }
  | Shed_reply of { shed : int; buffered : int; limit : int }
  | Policed of { color : int; offered : int; allowance : int }
      (** The feed would exceed the declared envelope for [color]:
          cumulative [offered] jobs against an [allowance] through the
          current round. Refused whole; counted in [fed]/[shed] (and
          the policed total), never enqueued. *)

(** [feed t ~colors ~counts] offers one request. [Error] means the
    request was rejected outright (mismatched arrays, unknown color,
    negative count) and does not count as fed. *)
val feed :
  t ->
  colors:int array ->
  counts:int array ->
  (feed_result, string) result

type step_result = {
  sr_round : int;
  sr_pending : int;
  sr_cost : int;
  sr_reconfigs : int;
  sr_drops : int;
  sr_execs : int;
}

val step : t -> rounds:int -> (step_result, string) result

type stats = {
  st_round : int;
  st_pending : int;
  st_buffered : int;
  st_fed : int;
  st_accepted : int;
  st_shed : int;
  st_execs : int;
  st_drops : int;
  st_reconfigs : int;
  st_failed : int;
  st_cost : int;
}

val stats : t -> stats

(** The session as an [rrs-sess/1] document embedding [rrs-snap/2]. *)
val snapshot : t -> string

(** Write {!snapshot} through {!Rrs_sim.Atomic_file.write}; on failure
    the temp file is unlinked before the exception propagates. *)
val save : t -> path:string -> unit

(** Checkpoint-boundary autosave: {!save} to [path] at most once per
    checkpoint epoch ([round / checkpoint_every]), so a crashed process
    loses at most the unsnapshotted window. True when a document was
    written; always false for sessions with [checkpoint_every = 0].
    Concurrent writers of one [path] never tear it. A failed
    write re-arms the epoch so the next boundary retries. *)
val autosave : t -> path:string -> bool

(** Finish the stepper (writes the stream summary), close the trace,
    return the final total cost. *)
val close : t -> (int, string) result

(** Tear down without a summary (the trace ends with an [aborted]
    record): used when the server stops without drain. *)
val release : t -> unit

(** Rebuild a session from an [rrs-sess/1] document. Rejects a document
    whose declared [snap_version] disagrees with the schema the embedded
    stepper document carries. [checkpoint_every], when given, overrides
    the document's interval (a negative value is an error). A pre-/2
    document is upgraded: it gets {!default_checkpoint_every} unless
    [checkpoint_every] overrides it, and its next snapshot is
    [rrs-snap/2]. *)
val restore :
  ?trace_dir:string ->
  ?checkpoint_every:int ->
  string ->
  (t, string) result

(** {!restore} from a file. *)
val load :
  ?trace_dir:string ->
  ?checkpoint_every:int ->
  path:string ->
  unit ->
  (t, string) result
