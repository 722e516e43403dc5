(** Algorithm Seq-EDF (Section 3.3): the EDF reference without
    replication — all [m] locations cache distinct colors, one copy each.
    DS-Seq-EDF is this policy run at engine speed 2 (two
    reconfiguration+execution mini-rounds per round).

    Unlike the online EDF of Section 3.1.2, this is an {e analysis
    reference}: the paper operates it on the eligible subsequence of the
    input, so it carries no eligibility gating of its own — every color
    is treated as eligible, and colors are ranked nonidle-first, then by
    deadline, bound, id. With gating, Corollary 3.1 (drops(DS-Seq-EDF_m)
    <= drops(Par-EDF_m)) would be false: a color with fewer than [Delta]
    jobs never wraps, so a gated reference would drop jobs Par-EDF
    executes. *)

include Policy_edf.Make (struct
  let name = "seq-edf"
  let slots ~n = n (* all [m] locations, distinct colors *)
  let copies = 1
  let gated = false (* every color is a candidate *)
end)
