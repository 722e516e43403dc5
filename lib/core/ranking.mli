(** Color-ranking schemes shared by the algorithms (Sections 3.1.2, 3.3).

    EDF rank over eligible colors: nonidle colors first, then ascending
    deadline, breaking ties by increasing delay bound, then by the
    consistent order of colors (ascending id). ΔLRU recency: most recent
    timestamp first, ties by the consistent order.

    Every order here is total (the color id breaks the last tie), so any
    exact top-k selection under it returns the same list. The per-round
    rankings over eligible colors are kept sorted by {!Color_state}
    ({!Color_state.ranked}); this module holds the comparisons that also
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

(** [edf_admit state pool ~bounds set ~capacity color] adds [color] to
    the sticky set; when that takes it past [capacity] distinct colors,
    the member ranking last under {!edf_compare} (possibly [color]
    itself) is evicted, and the result is [true]. *)
val edf_admit :
  Color_state.t -> Rrs_sim.Job_pool.t -> bounds:int array -> Sticky_set.t ->
  capacity:int -> Rrs_sim.Types.color -> bool

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
