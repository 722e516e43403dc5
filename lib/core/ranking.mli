(** Color-ranking schemes shared by the algorithms (Sections 3.1.2, 3.3).

    EDF rank over eligible colors: nonidle colors first, then ascending
    deadline, breaking ties by increasing delay bound, then by the
    consistent order of colors (ascending id). ΔLRU recency: most recent
    timestamp first, ties by the consistent order.

    Every order here is total (the color id breaks the last tie), so any
    exact top-k selection under it returns the same list. The per-round
    rankings over eligible colors are kept sorted by {!Color_state}
    ({!Color_state.iter_ranked}); this module holds the comparisons that also
    read the pool. *)

(** [edf_compare state pool ~bounds a b < 0] iff [a] ranks strictly better
    (earlier) than [b] under the EDF scheme. *)
val edf_compare :
  Color_state.t ->
  Rrs_sim.Job_pool.t ->
  bounds:int array ->
  Rrs_sim.Types.color ->
  Rrs_sim.Types.color ->
  int

(** [job_compare pool ~bounds a b < 0] iff the best pending job of color
    [a] ranks before the best pending job of color [b] under the pending-
    job ranking of Section 3.3 (deadline, then delay bound, then color).
    Both colors must be nonidle. *)
val job_compare :
  Rrs_sim.Job_pool.t ->
  bounds:int array ->
  Rrs_sim.Types.color ->
  Rrs_sim.Types.color ->
  int

(** The sticky EDF admission of one round, shared by {!Policy_edf},
    {!Seq_edf} and ΔLRU-EDF's EDF half. The candidates are the first
    [capacity] nonidle colors of a deadline order that [skip] does not
    exclude (idle colors rank after nonidle ones and are never
    admitted); each candidate not yet cached is added, and when that
    takes the set past [capacity], the member ranking last under
    {!edf_compare} (possibly the candidate itself) is evicted.

    A color becomes nonidle only by an arrival. So while no job arrives,
    the order keeps its {!Color_state.version} and [skip] does not
    change, the candidates of a round are those of the previous round
    that are still nonidle, followed, when the previous scan stopped at
    [capacity] and some dropped out, by the next ones after the last of
    them: the order is not scanned again from its start. *)
type admission

(** [admission state order cached ~capacity ~bounds ~skip] admits into
    [cached]. [order] is [Deadline] or [Deadline_all]. *)
val admission :
  Color_state.t ->
  Color_state.order ->
  Sticky_set.t ->
  capacity:int ->
  bounds:int array ->
  skip:(Rrs_sim.Types.color -> bool) ->
  admission

(** Forget the last scan. Call it when a job arrives, when what [skip]
    answers changes, and after a restore. *)
val invalidate : admission -> unit

(** [admit a pool] runs the round's admissions against [pool] and
    returns the number of evictions. *)
val admit : admission -> Rrs_sim.Job_pool.t -> int

(** The number of colors the last {!admit} added to the cached set (0
    when that set did not change). *)
val admitted : admission -> int
