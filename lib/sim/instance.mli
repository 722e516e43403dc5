(** A complete problem instance of [Delta | 1 | D_l | *].

    An instance fixes the reconfiguration cost [Delta], the per-color delay
    bounds, and the full request sequence. The horizon is the number of
    rounds to simulate; it always extends past the last deadline so every
    job is either executed or dropped by the end of the run. *)

type t = private {
  name : string;
  delta : int;
  bounds : int array; (* bounds.(c) = D_c >= 1; length = number of colors *)
  requests : Types.request array; (* indexed by round; length = horizon *)
  horizon : int;
}

(** [make ~delta ~bounds ~arrivals ()] builds an instance from sparse
    arrivals [(round, request)], in any order. All arrivals of one round
    are merged into one normalized request; the horizon is
    [max (round + D_color) + 1] over all arriving jobs (at least 1), or
    the explicit [horizon] if given (it must cover every deadline).

    Cost: one pass buckets the arrivals by round, then each non-empty
    round is normalized once — [O(A log k)] for [A] arrival entries and
    at most [k] entries in one round, plus [O(horizon)]. A round whose
    entries arrive in ascending color order (as the generators' are) is
    not sorted: it costs a bucket cell and a fresh cell and pair per
    entry.

    @raise Invalid_argument on, in this order: [delta < 1], an empty
    [bounds] array, a bound [< 1]; a negative count in any arrival; then,
    at the first arrival with one, a negative round or a color outside
    [0, #colors) (the least such color, among positive counts); then a
    horizon that truncates deadlines; then, at the first round with one,
    a color whose counts in that round sum past [max_int] (["job count
    overflow"], naming the least such color). An arrival that carries no
    job (an empty or all-zero request) is ignored wherever it falls,
    past the horizon too; only a negative round is refused. *)
val make :
  ?name:string ->
  ?horizon:int ->
  delta:int ->
  bounds:int array ->
  arrivals:(int * Types.request) list ->
  unit ->
  t

val num_colors : t -> int

(** Total number of jobs across all requests. *)
val total_jobs : t -> int

(** Number of jobs of one color. *)
val jobs_of_color : t -> Types.color -> int

(** [is_batched t] holds when every color-[c] arrival occurs at an
    integral multiple of [D_c] — the [.. | D_l] batch field. *)
val is_batched : t -> bool

(** [is_rate_limited t] holds when [is_batched t] and every color-[c]
    request carries at most [D_c] jobs — the rate-limited special case of
    Section 3. *)
val is_rate_limited : t -> bool

(** All delay bounds are powers of two. *)
val bounds_pow2 : t -> bool

(** Enumerate all concrete jobs in arrival order (stable by color within a
    round). *)
val iter_jobs : t -> (Types.job -> unit) -> unit

(** Sparse view of the request sequence: rounds with nonempty requests. *)
val nonempty_arrivals : t -> (int * Types.request) list

val pp_summary : Format.formatter -> t -> unit
