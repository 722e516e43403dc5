(** Deterministic fault plans: location crash/repair intervals and
    reconfiguration failures, injected into {!Engine.run} via [?faults].

    The paper's model assumes resources never fail; this module is the
    deliberate departure that lets the engine regenerate
    degradation-style curves (drop rate vs. fraction of capacity lost) in
    the spirit of the dynamic-reallocation and stochastic-availability
    literature. A plan is pure data — every fault is pinned to an
    absolute (round, location) — so runs are reproducible bit-for-bit
    from (instance seed, plan) alone, whatever the domain count.

    Semantics relative to the paper's four-phase round:
    - A {e crash window} [\[from, until)] takes the location offline at
      the start of round [from] (before the drop phase): its color is
      lost (it comes back black), it ignores the policy's target and
      executes nothing until round [until]. The global drop and arrival
      phases are unaffected — work keeps expiring while capacity is
      gone, which is exactly the degradation being measured.
    - A {e reconfiguration failure} at (round [r], location [l]) makes
      every Configure the policy attempts there during round [r] pay
      [Delta] without taking effect (the old color stays).

    Plans serialize as JSONL (schema {!schema_version}):
    {v
    {"schema":"rrs-faults/1","name":"...","seed":S}
    {"type":"crash","location":l,"from":a,"until":b}
    {"type":"reconfig_fail","round":r,"location":l}
    v} *)

type crash = {
  location : int;
  from_round : int; (* first offline round *)
  until_round : int; (* first online round again; exclusive *)
}

type reconfig_failure = { rf_round : int; rf_location : int }

type plan = private {
  name : string;
  seed : int; (* generator provenance; 0 for hand-written plans *)
  crashes : crash list; (* canonical: sorted, per-location merged *)
  reconfig_failures : reconfig_failure list; (* canonical: sorted, deduped *)
}

val schema_version : string

(** [make ~crashes ~reconfig_failures ()] validates and canonicalizes a
    plan: crashes sort by (location, from) and overlapping or touching
    windows of one location merge; failures sort and dedupe.
    @raise Invalid on a negative location/round or an empty window. *)
val make :
  ?name:string ->
  ?seed:int ->
  crashes:crash list ->
  reconfig_failures:reconfig_failure list ->
  unit ->
  plan

exception Invalid of string

(** The no-fault plan: [Engine.run ?faults:(Some empty)] is byte-identical
    to [Engine.run] without [faults]. *)
val empty : plan

val is_empty : plan -> bool
val crash_count : plan -> int
val reconfig_failure_count : plan -> int

(** Total offline location-rounds over all crash windows (not clipped to
    any horizon). *)
val offline_location_rounds : plan -> int

(** {1 Serialization} *)

val to_string : plan -> string

(** Atomic write through {!Atomic_file.write}. *)
val save : plan -> path:string -> unit

(** Parse a serialized plan; the result is canonicalized by {!make}. *)
val parse : string -> (plan, string) result

val load : path:string -> (plan, string) result

(** Human-readable description of every fault in the plan. *)
val pp_describe : Format.formatter -> plan -> unit

(** {1 Compiled runtime form}

    The engine compiles a plan once per run into per-round lookup
    tables, so the fault checks inside the round loop are list lookups
    on (almost always empty) per-round buckets. *)

type compiled

(** [compile plan ~n ~horizon] clips windows/failures to [horizon] rounds
    and validates every location against [n].
    @raise Invalid_argument if a fault names a location [>= n]. *)
val compile : plan -> n:int -> horizon:int -> compiled

(** Locations whose crash window starts at [round] (ascending). *)
val crashes_at : compiled -> round:int -> int list

(** Locations whose crash window ends at [round] (ascending). *)
val repairs_at : compiled -> round:int -> int list

(** Does a Configure at (round, location) fail? *)
val reconfig_fails : compiled -> round:int -> location:int -> bool
