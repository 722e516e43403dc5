(** Machine-readable benchmark output: serialize experiment results to a
    versioned [BENCH_<tag>.json] file.

    The schema (version {!schema_version}) is the contract between the
    bench harness and trajectory-comparison tooling (CI, plotting):

    {v
    { "schema": "rrs-bench/3",
      "tag": "<tag>",
      "experiments": [
        { "id": "E1", "claim": "...",
          "wall_s": 0.01, "minor_words": 12345.0,
          "runs": [
            { "policy": "dlru-edf", "workload": "uniform-0.9", "n": 16,
              "delta": 4, "cost": 123, "reconfig_count": 10,
              "reconfig_cost": 40, "drop_count": 83,
              "exec_count": 456,          // optional
              "wall_s": 0.002,            // optional
              "minor_words": 6789.0,      // optional
              "phases": {                 // optional (profiled runs)
                "drop":    {"wall_s": 0.0001, "minor_words": 10.0},
                "arrival": {"wall_s": 0.0001, "minor_words": 10.0},
                "reconfig":{"wall_s": 0.0001, "minor_words": 10.0},
                "execute": {"wall_s": 0.0001, "minor_words": 10.0} },
              "extras": {                 // optional integer metrics
                "conns": 2048, "calls_per_s": 3700, "p99_us": 2000 } } ] } ],
      "totals": { "experiments": 16, "runs": 120, "wall_s": 1.23 } }
    v}

    rrs-bench/2 extends rrs-bench/1 with the optional per-run ["phases"]
    object (per-phase monotonic wall clock + GC minor-words from
    [Engine.run ~profile:true]); all rrs-bench/1 fields are unchanged.
    rrs-bench/2 and /3 also defined optional per-experiment
    ["domain_load"] and ["errors"] arrays; nothing writes them any more,
    so a reader meets them only in older documents.

    [cost], [reconfig_count], [reconfig_cost] (= delta * reconfig_count)
    and [drop_count] are deterministic for fixed seeds; [wall_s],
    [minor_words] and [phases] are environment-dependent.
    Comparisons across commits must key on (experiment id, run index) and
    the deterministic fields only. All wall clocks are monotonic
    ({!Rrs_obs.Clock}). *)

type t

val schema_version : string

(** Derive a tag from an output path: ["results/BENCH_pr1.json"] ->
    ["pr1"]; falls back to the basename without extension. *)
val tag_of_path : string -> string

val create : tag:string -> t

(** Open a new experiment group; closes (and timestamps) the previous
    one. Runs recorded before any [start_experiment] go to an implicit
    ["adhoc"] group. *)
val start_experiment : t -> id:string -> claim:string -> unit

(** Record one run into the current experiment. [exec_count] defaults to
    unknown; [wall_s]/[minor_words] to unmeasured; [phases] (from
    [Rrs_obs.Profile.fields]) to absent. [extras] is an optional flat
    object of additional integer metrics (e.g. the churn bench's [conns],
    [calls_per_s], [p50_us], [p99_us]); absent entries render nothing,
    so the addition is backward-compatible within rrs-bench/3. *)
val record :
  t ->
  policy:string ->
  workload:string ->
  n:int ->
  delta:int ->
  cost:int ->
  reconfig_count:int ->
  drop_count:int ->
  ?exec_count:int ->
  ?wall_s:float ->
  ?minor_words:float ->
  ?phases:(string * float * float) list ->
  ?extras:(string * int) list ->
  unit ->
  unit

(** Close the current experiment and render the whole document. *)
val to_string : t -> string

(** [write t ~path] finalizes and writes the JSON document to [path]
    atomically through {!Rrs_sim.Atomic_file.write}: a concurrent
    reader never observes a half-written document. *)
val write : t -> path:string -> unit
