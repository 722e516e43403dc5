(** ΔLRU-2: the LRU-K replacement idea of O'Neil et al. (paper related
    work, [12]) transplanted into the ΔLRU setting.

    Identical to {!Policy_lru} except colors are ranked by their
    {e second-to-last} counter-wrap round (ties broken by the last wrap,
    then the consistent color order). LRU-K resists single-burst pollution
    better than LRU, but it is still a pure-recency scheme: it ignores
    idleness and deadlines, so the Appendix A adversary defeats it the
    same way it defeats ΔLRU — the baseline demonstrates that the EDF
    half of ΔLRU-EDF is doing real work. *)

include Policy_lru.Recency (struct
  let name = "dlru-2"
  let order = Color_state.Recency2
end)
