(** Randomized workload families for sweeps and property tests.

    All generators are deterministic in their seed. Bounds are powers of
    two unless stated otherwise; arrivals are batched at multiples of
    each color's bound (the [.. | D_l] batch model), with an option to
    cap batch sizes at [D_l] (rate-limited).

    The draw order is part of the seed contract: the bounds first (and
    [bursty]'s initial states), then color by color in ascending order,
    each color's batches (or arrivals) in round order. Every seed has
    named the same instance (name, bounds, requests, horizon) since the
    generators were written; the experiment tables and the benchmark's
    golden ledgers depend on it. The batched generators keep their
    counts in one int array and add them to an {!Rrs_sim.Instance.builder}
    colors descending, so no round is reversed or sorted: about 6 minor
    words per non-empty batch. *)

(** [uniform ~seed ~colors ~delta ~bound_log_range:(lo, hi) ~horizon
    ~load ~rate_limited ()]: every color gets an independent power-of-two
    bound in [2^lo, 2^hi]; at each multiple of its bound it receives a
    Poisson count with mean [load * bound] (so [load] is per-round
    arrival intensity per color), capped at the bound when
    [rate_limited]. *)
val uniform :
  seed:int ->
  colors:int ->
  delta:int ->
  bound_log_range:int * int ->
  horizon:int ->
  load:float ->
  rate_limited:bool ->
  unit ->
  Rrs_sim.Instance.t

(** [bursty]: like [uniform] but each color flips between ON and OFF
    states at its batch boundaries (two-state Markov chain with switch
    probability [churn]); OFF batches are empty, ON batches carry
    [load]-scaled traffic. Models intermittent services. *)
val bursty :
  seed:int ->
  colors:int ->
  delta:int ->
  bound_log_range:int * int ->
  horizon:int ->
  load:float ->
  churn:float ->
  rate_limited:bool ->
  unit ->
  Rrs_sim.Instance.t

(** [zipf]: color popularity follows a Zipf law with exponent [s] — a
    few hot colors carry most traffic. *)
val zipf :
  seed:int ->
  colors:int ->
  delta:int ->
  bound_log_range:int * int ->
  horizon:int ->
  load:float ->
  s:float ->
  rate_limited:bool ->
  unit ->
  Rrs_sim.Instance.t

(** [unbatched]: arrivals at arbitrary rounds (geometric gaps), arbitrary
    (not necessarily power-of-two) bounds in [bound_range] — the general
    [Δ|1|D_l|1] input class for VarBatch. *)
val unbatched :
  seed:int ->
  colors:int ->
  delta:int ->
  bound_range:int * int ->
  horizon:int ->
  load:float ->
  unit ->
  Rrs_sim.Instance.t
