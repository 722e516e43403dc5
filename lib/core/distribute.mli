(** Algorithm Distribute (Section 4): reduce batched arrivals
    [Δ|1|D_l|D_l] to the rate-limited special case.

    Each request's color-[l] jobs are ranked (arrival order) and job rank
    [r] is relabeled to subcolor [(l, r / D_l)], so every subcolor
    receives at most [D_l] jobs per batch — a rate-limited instance.
    ΔLRU-EDF runs on the subcolor instance; configuring subcolor [(l, j)]
    becomes configuring [l], and executing an [(l, j)] job becomes
    executing an [l] job ({!Solver.solve} runs the composition).
    Collapsed same-color reconfigurations cost nothing, so the outer cost
    is at most the inner cost (Lemma 4.2); Theorem 2 makes the
    composition resource competitive. *)

(** Build the rate-limited subcolor instance and the subcolor->color map.
    Works for any batched instance; subcolor bounds equal parent bounds.
    @raise Invalid_argument if the instance is not batched. *)
val transform : Rrs_sim.Instance.t -> Rrs_sim.Instance.t * int array
