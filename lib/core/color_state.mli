(** Per-color bookkeeping shared by ΔLRU, EDF and ΔLRU-EDF — the "common
    aspects" of Section 3.1.

    For each color [l] the paper maintains a counter [l.cnt], a deadline
    [l.dd], and an eligibility bit, updated at integral multiples of the
    color's delay bound [D_l]:

    - Drop phase of round [k], [k mod D_l = 0]: if [l] is eligible and not
      cached, it becomes ineligible and [l.cnt] resets to 0 (this ends an
      epoch of [l]).
    - Arrival phase of round [k], [k mod D_l = 0]: [l.dd := k + D_l];
      [l.cnt] grows by the number of arriving color-[l] jobs; when
      [l.cnt >= Delta] it wraps to [l.cnt mod Delta] (a {e counter
      wrapping event}) and [l] becomes eligible.

    The ΔLRU {e timestamp} of [l] (Section 3.1.1) is the latest round
    strictly before the most recent multiple of [D_l] in which a counter
    wrapping event of [l] occurred, and 0 if there is none.

    State follows events. Every color of one bound shares every
    boundary, so the colors are kept in {e bound groups}: a group stores
    the deadline [dd] of all its colors once, and its eligible colors in
    ascending id. A boundary of a group moves that one key and re-sorts
    the [G] groups ([G] = distinct bounds), then visits only the colors
    that wrapped since the group's previous boundary — no other color's
    timestamp can have moved — in ascending id, groups in ascending
    bound (the order timestamp-update events are reported in). After
    {!deserialize_fields}, which does not know those colors, every color
    with a wrap or a nonzero reported timestamp is visited at its next
    boundary. An epoch reset visits
    only the group's eligible colors. So a boundary costs [O(G)] plus
    the colors that wrapped or reset, not the colors of the group.

    The orders: the recency orders are kept sorted
    ({!Rrs_ds.Ranked_set}), re-ranked only where a color's keys or
    eligibility change; the deadline orders are the groups sorted by
    [(dd, bound)], each listing its eligible (or all) colors in
    ascending id. A policy reads a recency order by index ({!ranked})
    and walks a deadline order ({!iter_ranked}); nothing is ranked per
    round.

    The module also instruments the quantities used by the analysis:
    epochs (Section 3.2), counter wraps, timestamp update events
    (Section 3.4), and the eligible/ineligible split of drop costs. *)

type t

(** The rank orders over the eligible colors, each total (the color id
    breaks the last tie):
    - [Recency]: the more recent ΔLRU timestamp first (Section 3.1.1);
    - [Recency2]: the more recent LRU-2 timestamp first, then the more
      recent ΔLRU timestamp;
    - [Deadline]: the earlier deadline first, then the smaller bound —
      Section 3.1.2's EDF rank without its nonidle-first rule, which
      depends on the pool;
    - [Deadline_all]: the same order over every color, eligible or not
      (Seq-EDF's ungated ranking). *)
type order = Recency | Recency2 | Deadline | Deadline_all

(** [on_timestamp] is invoked once per timestamp-update event, in
    chronological order, as the event happens (super-epoch tracking
    consumes them this way). [orders] are the
    rank orders the state keeps (default: all three); each recency order
    costs its upkeep at every event, so a policy asks only for those it
    reads. The deadline orders cost nothing to keep and are always
    available. *)
val create :
  ?on_timestamp:(round:int -> color:int -> unit) ->
  ?orders:order list ->
  delta:int ->
  bounds:int array ->
  unit ->
  t

val num_colors : t -> int

(** Drop-phase hook. [dropped] is the engine's per-color drop counts for
    this round; [in_cache] reports current cache membership (the policy's
    own cached set). Dropped jobs are classified eligible/ineligible by
    the color's eligibility {e before} any reset this round. *)
val on_drop :
  t ->
  round:int ->
  dropped:(Rrs_sim.Types.color * int) list ->
  in_cache:(Rrs_sim.Types.color -> bool) ->
  unit

(** Arrival-phase hook. Updates deadlines at every boundary of every color
    (even with no arriving jobs), then applies counter/eligibility updates
    for the arriving jobs. *)
val on_arrival : t -> round:int -> request:Rrs_sim.Types.request -> unit

val eligible : t -> Rrs_sim.Types.color -> bool

(** Current per-color deadline [l.dd] (0 before the first boundary). *)
val deadline : t -> Rrs_sim.Types.color -> int

(** The color's delay bound [D_l]. *)
val bound : t -> Rrs_sim.Types.color -> int

(** ΔLRU timestamp of the color as of [round], computed from its wrap
    rounds (the definition; the [Recency] order ranks by its stored
    value). *)
val timestamp : t -> Rrs_sim.Types.color -> round:int -> int

(** LRU-2 timestamp: the second-to-last counter-wrap round strictly
    before the most recent boundary (0 when fewer than two such wraps
    exist) — the LRU-K recency notion of O'Neil et al. with K = 2,
    used by the {!Policy_lru_k} baseline. *)
val timestamp2 : t -> Rrs_sim.Types.color -> round:int -> int

(** Number of currently eligible colors. *)
val eligible_count : t -> int

(** [ranked t order i], [0 <= i < eligible_count t], for a recency
    [order]: the color of rank [i] (0 = best), as of the round of the
    latest {!on_arrival} or {!sync_keys}.
    @raise Invalid_argument for a deadline order, or a recency order
    not requested at {!create}. *)
val ranked : t -> order -> int -> Rrs_sim.Types.color

(** [iter_ranked t order f], for a deadline [order], calls [f] on its
    colors, best first, until [f] returns [false] or the order ends: the
    eligible colors for [Deadline], every color for [Deadline_all]. [f]
    must not change [t].
    @raise Invalid_argument for a recency order. *)
val iter_ranked : t -> order -> (Rrs_sim.Types.color -> bool) -> unit

(** [iter_ranked_after t order color f] is {!iter_ranked} from the color
    ranked right after [color], which must be in [order]. *)
val iter_ranked_after :
  t -> order -> Rrs_sim.Types.color -> (Rrs_sim.Types.color -> bool) -> unit

(** [version t order] is a counter that moves whenever [order] may have
    changed (a key, a member, the whole order); the two recency orders
    share one counter, and so do the two deadline orders. A policy whose
    choice reads only an order and [eligible_count] recomputes it only
    when these moved. *)
val version : t -> order -> int

(** [sync_keys t ~round] makes the recency orders current for [round].
    [on_arrival] keeps them current for its round — re-ranking only the
    colors at a boundary or a wrap when rounds advance one at a time, and
    rebuilding both orders after any other jump or after
    {!deserialize_fields} — so in a stepped run this call is a no-op. *)
val sync_keys : t -> round:int -> unit

(** Counters for experiments: ["epochs"] (ended + active incomplete),
    ["wraps"], ["timestamp_updates"], ["eligible_drops"],
    ["ineligible_drops"]. *)
val stats : t -> (string * int) list

(** The per-color state as [rrs-snap/2] policy-blob field fragments
    (["cs_"]-prefixed keys, no surrounding braces), for policies to splice
    into their own flat JSON blob. The timestamp event log is not
    serialized — it grows with rounds served; incremental consumers use
    [on_timestamp] instead. *)
val serialize_fields : t -> string

(** Applies fields written by {!serialize_fields} to a freshly created
    state with the same [delta]/[bounds].
    @raise Rrs_sim.Event_sink.Json.Parse_error on missing fields,
    per-color arrays whose length disagrees with [num_colors], or a
    ["cs_dd"] whose values differ within one bound group (the message
    names the color and the group's bound). *)
val deserialize_fields : t -> (string * Rrs_sim.Event_sink.Json.value) list -> unit
