(** Reconstruct a run from its streamed JSONL — any schema in
    [Event_sink.supported_schemas] ([rrs-events/1] and [rrs-events/2]).

    Folds the event lines back into the exact ledger counters of the live
    run — {!summary_string} is byte-identical to what
    [Ledger.pp_summary] printed during the run, because both go through
    [Ledger.pp_summary_counts] — plus the trajectory distributions
    (execution slack, drop latency, per-round reconfig churn, queue
    depth, offline locations) the streaming sink preserves and
    end-of-run totals lose. This fold is the one place those
    distributions are computed; the engine records none of them live.

    [offline_locations] counts, per round, the locations offline after
    that round's [crash]/[repair] events. A trace that starts with a
    [restored] line (a checkpoint-seeded session) leaves it empty: the
    stream does not say which locations were offline at the
    checkpoint.

    Memory is bounded: events fold into fixed-bucket histograms
    ({!Rrs_obs.Probe}), never a retained list. The closing summary line
    is required and cross-checked against the folded totals, so a
    truncated file is always detected; an explicit [aborted] record
    (written by the engine when a policy raises mid-run) is reported as
    its own error naming the round and reason. *)

type t = {
  header : Rrs_sim.Event_sink.header;
  reconfig_count : int; (* paid reconfigurations, failed ones included *)
  failed_reconfig_count : int; (* 0 for every rrs-events/1 file *)
  crash_count : int;
  repair_count : int;
  drop_count : int;
  exec_count : int;
  rounds_seen : int; (* round-snapshot lines *)
  events_seen : int; (* reconfig + drop + execute + fault lines *)
  exec_slack : Rrs_obs.Probe.hist_snapshot; (* deadline - round at execute *)
  drop_latency : Rrs_obs.Probe.hist_snapshot; (* delay bound of dropped jobs *)
  round_reconfigs : Rrs_obs.Probe.hist_snapshot; (* churn per round *)
  queue_depth : Rrs_obs.Probe.hist_snapshot; (* pending jobs per round *)
  offline_locations : Rrs_obs.Probe.hist_snapshot;
      (* offline locations per round; empty for a restored trace *)
  summary : Rrs_sim.Event_sink.summary; (* the file's closing line *)
}

val of_channel : in_channel -> (t, string) result

val of_path : string -> (t, string) result

(** [delta * reconfig_count + drop_count]. *)
val total_cost : t -> int

(** The live run's [Ledger.pp_summary] line, reconstructed. *)
val summary_string : t -> string

(** Percentile tables for the five trajectory distributions: per event
    (slack, drop latency) and per round (churn, queue depth, offline
    locations). *)
val tables : t -> Table.t list
