(** Top-level entry point: classify an instance and run the paper's
    layered pipeline on it.

    - rate-limited [Δ|1|D_l|D_l] with power-of-two bounds: ΔLRU-EDF
      directly (Section 3, Theorem 1);
    - batched [Δ|1|D_l|D_l] with power-of-two bounds: Distribute
      (Section 4, Theorem 2);
    - anything else, arbitrary bounds: VarBatch (Section 5, Theorem 3).

    The two reductions are instance transforms ({!Distribute.transform},
    {!Var_batch.transform}): the inner policy runs once on the
    transformed instance, and its reconfigurations and executions,
    relabeled to the original colors, are replayed onto the original
    instance by one {!Rrs_sim.Rebuild.rebuild}. *)

type pipeline = Direct_lru_edf | Distributed | Var_batched

val pipeline_to_string : pipeline -> string

(** Which pipeline {!solve} will pick for an instance. *)
val classify : Rrs_sim.Instance.t -> pipeline

type outcome = {
  pipeline : pipeline;
  schedule : Rrs_sim.Schedule.t; (* on the given instance; validates *)
  cost : int;
  reconfig_count : int;
  drop_count : int;
  inner : Rrs_sim.Engine.result;
      (* the inner policy's run on the transformed instance (the given
         one for [Direct_lru_edf]); its [stats] are the policy counters *)
}

(** [solve ~n instance] runs the appropriate pipeline with [n] resources.
    [policy] overrides the innermost algorithm (default ΔLRU-EDF).
    [pipeline] forces a specific pipeline (it must be applicable). *)
val solve :
  ?policy:(module Rrs_sim.Policy.POLICY) ->
  ?pipeline:pipeline ->
  n:int ->
  Rrs_sim.Instance.t ->
  (outcome, string) result
