(** Incremental round engine: the paper's four-phase round model, one
    round at a time, for online serving.

    {!Engine.run} is a loop over this module — the stepper IS the engine,
    so a served session and a batch run execute the same code and emit
    byte-identical [rrs-events/2] streams. The serving layer
    ([Rrs_server]) holds one stepper per session, [feed]s arrivals as
    they come in over the wire and [step]s rounds on demand; nothing has
    to be known up front, unlike {!Instance.t} which materializes the
    whole request sequence before a run starts.

    Lifecycle: [create] (writes the stream header) -> any interleaving of
    [feed] and [step] -> [finish] (writes the closing summary) — or
    [abort] if a policy raised mid-round. [feed] accumulates arrivals for
    the round the {e next} [step] executes; a round with no feeds is a
    legal idle round.

    {1 Snapshot / restore (schema [rrs-snap/2]; [rrs-snap/1] read only)}

    [snapshot] captures the full scheduler state as a versioned JSONL
    document; [restore] rebuilds a live stepper from it by {e
    deterministic replay}: the document embeds the config, the fault
    plan, a replay base and the arrivals consumed since that base, and
    restore re-runs them round by round (policies are deterministic, so
    this reconstructs the policy's live state exactly). The document
    also carries the current materialized state (pool deadline
    multisets, assignment, offline set, ledger counters); restore
    cross-checks the replay against them and fails loudly on any
    mismatch rather than continuing from a diverged state.

    Every stepper writes [rrs-snap/2]. With [checkpoint_every = K]
    (> 0), every K-th round the stepper materializes its state — pool,
    assignment, offline set, ledger counters, and the policy's
    {!Policy.POLICY.serialize} blob — as the new replay base and drops
    the arrival history it supersedes. Snapshots then embed the
    checkpoint ([base_*] lines) plus at most K rounds of arrivals, so
    resident history, snapshot bytes and restore replay time are all
    O(K), independent of the rounds served. With [K = 0] the document
    has no [base_*] lines and embeds {e every} arrival ever consumed:
    size and restore time grow as O(total arrivals fed), fine for batch
    runs and bounded experiments but unbounded for a long-lived serving
    session.

    [restore] also reads the legacy [rrs-snap/1] schema, which is the
    [K = 0] document without the header's [checkpoint_every] field (it
    refuses [base_*] lines there). Nothing writes /1 any more.

    Replayed events are re-emitted into the restored stepper's (fresh)
    sink. Without a base the restored stream is a complete rrs-events
    document from round 0, byte-identical to an uninterrupted run's.
    With one the stream starts at the checkpoint: a [restored] line
    written right after the header carries the event totals accumulated
    before it, so stream readers ({!Rrs_stats.Report}) still reconcile
    the closing summary against the folded events. *)

(** Phase slot names of [result.profile], in slot order:
    [drop; arrival; reconfig; execute]. *)
val phase_names : string list

(** [rrs-snap/2], the one snapshot schema {!snapshot} writes. *)
val snapshot_schema : string

(** Static run parameters. [horizon] is nominal for a served session (it
    sizes fault-plan compilation and is echoed in the stream header);
    stepping past it is legal — fault plans are simply inert there. *)
type config = {
  name : string;
  delta : int;
  bounds : int array; (* bounds.(c) = D_c >= 1; length = number of colors *)
  n : int;
  speed : int; (* mini-rounds per round, >= 1 *)
  horizon : int;
}

type result = {
  ledger : Ledger.t;
  stats : (string * int) list;
      (* policy-reported counters, then the probe snapshot (if any) *)
  final_assignment : Types.color option array;
  profile : Rrs_obs.Profile.t option;
}

(** The standard engine probes (see {!Engine}); exposed so analysis
    helpers can reuse the record shape. *)
type probes = {
  registry : Rrs_obs.Probe.registry;
  exec_slack : Rrs_obs.Probe.histogram;
  drop_latency : Rrs_obs.Probe.histogram;
  round_reconfigs : Rrs_obs.Probe.histogram;
  queue_depth : Rrs_obs.Probe.histogram;
  offline_locations : Rrs_obs.Probe.histogram;
  failed_reconfigs : Rrs_obs.Probe.counter;
  color_depth : Rrs_obs.Probe.gauge array;
}

type t

(** [create ~policy config] builds a stepper at round 0 and writes the
    [rrs-events/2] header to the sink. Parameters as {!Engine.run};
    [label] prefixes every [Invalid_argument] this stepper raises
    (default ["Stepper"]; [Engine.run] passes its own name so existing
    error messages are unchanged). [checkpoint_every] (default 0 =
    never) makes every K-th round materialize a checkpoint and compact
    the arrival history — see the module docs; a stepper with
    checkpointing on defaults {!snapshot} to [rrs-snap/2].
    @raise Invalid_argument on [n < 1], [speed < 1], [delta < 1], empty
    or invalid [bounds], a negative [checkpoint_every], or a fault plan
    naming a location [>= n]. *)
val create :
  ?record_events:bool ->
  ?sink:Event_sink.t ->
  ?probes:Rrs_obs.Probe.registry ->
  ?profile:bool ->
  ?faults:Fault.plan ->
  ?checkpoint_every:int ->
  ?label:string ->
  policy:(module Policy.POLICY) ->
  config ->
  t

(** [feed t request] queues arrivals for the round the next [step]
    executes. Multiple feeds accumulate; the request is normalized at
    consumption. @raise Invalid_argument on an unknown color, a negative
    count, or a finished stepper. *)
val feed : t -> Types.request -> unit

(** [step t] runs one full round: fault transitions, drop phase, arrival
    phase (consuming the fed buffer), [speed] reconfigure+execute
    mini-rounds, then the probes and the streamed round snapshot.
    @raise Invalid_argument on a policy protocol violation (wrong target
    length, color out of range) or a finished stepper. *)
val step : t -> unit

(** Close the stream with an explicit [aborted] record and flush (the
    stepper's round names the aborting round). Use when [step] raised and
    the run will not continue. *)
val abort : t -> reason:string -> unit

(** Write the closing summary, flush, and return the run's result.
    @raise Invalid_argument on double finish. *)
val finish : t -> result

(** {1 Accessors} *)

(** The round the next [step] executes (= rounds executed so far). *)
val round : t -> int

val ledger : t -> Ledger.t

(** Jobs pending in the pool (excludes the fed-but-unstepped buffer). *)
val pool_pending : t -> int

(** Jobs fed but not yet consumed by a [step]. *)
val buffered_jobs : t -> int

(** Total jobs accepted by [feed] since creation (survives restore). *)
val accepted_jobs : t -> int

val policy_name : t -> string
val config : t -> config
val finished : t -> bool

(** Copy of the current physical assignment. *)
val assignment : t -> Types.color option array

(** The checkpoint interval this stepper was created with (0 = never). *)
val checkpoint_every : t -> int

(** Round of the latest checkpoint — the replay base a snapshot embeds —
    or 0 when none has been taken (replay starts at round 0 either way). *)
val base_round : t -> int

(** Rounds currently retained in the arrival history (the replay delta).
    Bounded by [checkpoint_every] when checkpointing is on; grows with
    every arrival-carrying round otherwise. *)
val history_rounds : t -> int

(** {1 Snapshot / restore} *)

(** The full scheduler state as an [rrs-snap/2] JSONL document. A
    stepper that never checkpoints writes ["checkpoint_every":0] and no
    [base_*] lines. *)
val snapshot : t -> string

(** [save t ~path] writes {!snapshot} through {!Atomic_file.write}. *)
val save : t -> path:string -> unit

(** [restore ~policy doc] rebuilds a stepper by deterministic replay —
    from the embedded checkpoint when the document has one, from round
    0 otherwise (always for a legacy [rrs-snap/1] document) — and
    cross-checks the result against the document's materialized state
    (see module docs). A checkpoint that names a color or location
    outside the config is refused. [policy] must be the module the
    snapshot names. [checkpoint_every] overrides the document's
    interval for the restored stepper (default: keep the document's;
    0 for /1 documents). Replayed events go to [sink]. *)
val restore :
  ?record_events:bool ->
  ?sink:Event_sink.t ->
  ?probes:Rrs_obs.Probe.registry ->
  ?profile:bool ->
  ?label:string ->
  ?checkpoint_every:int ->
  policy:(module Policy.POLICY) ->
  string ->
  (t, string) Stdlib.result
