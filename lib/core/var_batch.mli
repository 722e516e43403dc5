(** Algorithm VarBatch (Section 5): reduce general arrivals [Δ|1|D_l|1]
    to batched arrivals, then apply Distribute ({!Solver.solve} runs the
    composition).

    A job of a color with bound [D >= 2] arriving in a half-block is
    delayed to the start of the next half-block and must execute within
    it: with [q = ] largest power of two [<= D/2], arrival [a] becomes
    [(a/q + 1) * q] with new bound [q]. The delayed window is contained
    in the original one ([a' + q <= a + 2q <= a + D]), so the resulting
    schedule is feasible for the original deadlines. Bound-1 colors are
    already batched and pass through unchanged. This realizes both the
    power-of-two case of Section 5.1 ([q = D/2]) and the arbitrary-bound
    extension of Section 5.3. Theorem 3 makes the composition resource
    competitive. *)

(** The effective batched bound [q] for an original bound: largest power
    of two [<= D/2], and [1] for [D = 1]. *)
val effective_bound : int -> int

(** Delay arrivals into half-block batches; bounds become effective
    bounds. *)
val transform : Rrs_sim.Instance.t -> Rrs_sim.Instance.t
