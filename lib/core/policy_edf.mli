(** Algorithm EDF (Section 3.1.2): deadline-driven sticky caching.

    Eligible colors are ranked nonidle-first, then by ascending per-color
    deadline, delay bound, and color id. Any nonidle eligible color in
    the top [n/2] rankings that is missing from the cache is brought in
    (two locations per color); when the cache is full the lowest-ranked
    cached color is evicted. Colors stay cached until displaced.

    Not resource competitive: an intermittently idle short-bound color
    keeps displacing the long-bound color with the latest deadline, so
    reconfiguration cost thrashes without bound (Appendix B; see
    {!Rrs_workload.Adversary.edf_killer} and experiment E2). Implemented
    as a baseline. *)

include Rrs_sim.Policy.POLICY

(** The sticky EDF scheme, shared with {!Seq_edf}: up to [slots ~n]
    distinct colors cached in [copies] locations each; candidates are the
    nonidle colors, restricted to eligible ones when [gated]. *)
module Make (_ : sig
  val name : string
  val slots : n:int -> int
  val copies : int
  val gated : bool
end) : Rrs_sim.Policy.POLICY
