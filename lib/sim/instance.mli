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

(** {1 Building}

    Every instance is built by one round builder: entries are bucketed by
    round as they are added, and [finish] turns the buckets into the
    request array in one pass. [make], the generators of [rrs_workload]
    and the solver's transforms all go through it. *)

type builder

(** [builder ?name ?horizon ~delta ~bounds ()] starts an instance with no
    arrivals. With [horizon], [finish] keeps it (it must cover every
    deadline); without, the horizon is [max (round + D_color) + 1] over
    all added jobs (at least 1).

    @raise Invalid_argument on, in this order: [delta < 1], an empty
    [bounds] array, a bound [< 1]. *)
val builder :
  ?name:string -> ?horizon:int -> delta:int -> bounds:int array -> unit -> builder

(** [add b ~round ~color ~count] adds [count] jobs of [color] arriving
    at [round]: an arrival of one entry. A zero count carries no job and
    is ignored wherever it falls; invalid entries are reported by
    [finish], not here. Cost: a cell and a pair, plus the doubling of the
    bucket array when [round] is past it. *)
val add : builder -> round:int -> color:Types.color -> count:int -> unit

(** [finish b] is the instance of everything added to [b] so far; [b]
    may be added to and finished again. Each round's entries are put in
    ascending colors, a color's counts merged. Entries added to each
    round in strictly descending colors (the generators add colors from
    the last down) already are: when every round's were, [finish] copies
    the buckets and walks no list, [O(horizon)]. Otherwise a round whose
    entries were added in strictly ascending colors is reversed, and
    only other rounds are sorted, [O(k log k)] for [k] entries in one
    round.

    @raise Invalid_argument on, in this order: a negative count in any
    entry; then, at the first arrival with one, a negative round or a
    color outside [0, #colors) (the least such color, among positive
    counts); then a horizon that truncates deadlines; then, at the first
    round with one, a color whose counts in that round sum past
    [max_int] (["job count overflow"], naming the least such color). *)
val finish : builder -> t

(** [make ~delta ~bounds ~arrivals ()] builds an instance from sparse
    arrivals [(round, request)], in any order: a fold of [arrivals] into
    a {!builder}, one arrival per element, then {!finish}. All arrivals of
    one round are merged into one normalized request. An arrival that
    carries no job (an empty or all-zero request) is ignored wherever it
    falls, past the horizon too; only a negative round is refused.

    Cost: a cell and a pair per entry. A round given as one normalized
    request, or as arrivals listed in descending colors, is kept as is;
    one whose arrivals are listed in ascending colors (one color's
    arrivals after another's) is reversed, a cell more per entry; only
    other rounds are sorted.

    @raise Invalid_argument as {!builder}, then as {!finish}. *)
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
