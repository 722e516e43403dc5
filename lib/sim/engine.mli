(** The discrete-round engine: the paper's four-phase round model.

    Implemented as a loop over the incremental {!Stepper} (feed one
    round's request, step): batch runs and the online serving layer
    ([Rrs_server]) execute the same code and emit byte-identical
    [rrs-events/2] streams.

    Each round runs (1) the drop phase — jobs whose deadline equals the
    round index are dropped at unit cost each; (2) the arrival phase;
    (3)+(4) [speed] iterations of the reconfiguration and execution
    phases ([speed = 1] for uni-speed algorithms, [speed = 2] for the
    double-speed schedules of Section 3.3). In each execution phase every
    location configured with color [c] executes up to one pending job of
    color [c], always the one with the earliest deadline.

    Fault injection (opt-in via [faults], see {!Fault}): crash windows
    take locations offline at the start of a round (before the drop
    phase) — an offline location loses its color, ignores the policy's
    target and executes nothing until repaired — and reconfiguration
    failures make a Configure pay [Delta] without taking effect. With an
    empty (or absent) plan the engine behaves bit-for-bit as before.

    Observability (all opt-in, zero-cost when off):
    - [sink]: stream ledger events, per-round snapshots and a closing
      summary (JSONL schema [rrs-events/2]) with bounded resident memory.
      A policy exception mid-run closes the stream with an explicit
      [aborted] record (then re-raises), so readers can tell an abort
      from silent truncation.
      The stream is the one source of run distributions:
      {!Rrs_stats.Report} folds it into execution slack, drop latency,
      per-round churn, queue depth and offline locations.
    - [profile]: per-phase monotonic wall-clock + GC minor-words
      aggregates in [result.profile]. *)

(** Phase slot names of [result.profile], in slot order:
    [drop; arrival; reconfig; execute]. *)
val phase_names : string list

type result = Stepper.result = {
  ledger : Ledger.t;
  stats : (string * int) list;
      (* the policy's own counters ({!Policy.POLICY.stats}) *)
  final_assignment : Types.color option array;
  profile : Rrs_obs.Profile.t option;
}

(** [run ~n ~policy instance] simulates [instance] to its horizon with [n]
    resources under [policy].

    @param speed mini-rounds (reconfig+execution iterations) per round;
    default 1.
    @param record_events keep the full event log in the ledger (needed by
    {!Schedule.validate}); default true. Ignored when [sink] is given.
    @param sink explicit event sink (overrides [record_events]).
    @param profile measure per-phase wall clock and allocation; default
    false.
    @param faults deterministic fault plan; absent or {!Fault.empty}
    leaves the run untouched.
    @raise Invalid_argument if the policy returns an assignment of the
    wrong length, or [n < 1], or [speed < 1], or the fault plan names a
    location [>= n]. *)
val run :
  ?speed:int ->
  ?record_events:bool ->
  ?sink:Event_sink.t ->
  ?profile:bool ->
  ?faults:Fault.plan ->
  n:int ->
  policy:(module Policy.POLICY) ->
  Instance.t ->
  result

(** Convenience: [total_cost (run ...)]. *)
val cost :
  ?speed:int -> ?faults:Fault.plan -> n:int -> policy:(module Policy.POLICY) ->
  Instance.t -> int
