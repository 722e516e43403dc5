(** Algorithm ΔLRU (Section 3.1.1): pure recency caching.

    Keeps the [n/2] eligible colors with the most recent ΔLRU timestamps
    cached (each replicated in two locations), ties broken by the
    consistent color order. A color's timestamp is the latest round,
    strictly before the most recent multiple of its delay bound, in which
    its arrival counter wrapped around [Delta].

    Not resource competitive: recency ignores idleness and backlog, so
    the Appendix A construction pins idle short-term colors while a huge
    long-bound backlog starves (see {!Rrs_workload.Adversary.lru_killer}
    and experiment E1). Implemented as a baseline. *)

include Rrs_sim.Policy.POLICY

(** The recency scheme over a rank order of the eligible colors: the
    [n/2] eligible colors that rank best are cached, placed in rank
    order. {!Policy_lru_k} is this with the LRU-2 order. *)
module Recency (_ : sig
  val name : string
  val order : Color_state.order
end) : Rrs_sim.Policy.POLICY
