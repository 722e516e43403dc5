(** Stable placement of a wanted color set onto cache locations.

    Policies decide {e which} colors to cache; this module decides
    {e where}, preserving existing placements so that the engine's
    location diff charges exactly one reconfiguration per newly placed
    copy. Each wanted color is cached in [copies] locations (Section 3.1
    replicates every cached color in two locations; Seq-EDF uses one).

    Locations already holding a wanted color are kept (up to [copies]);
    missing copies go to the lowest-index locations not otherwise used,
    color by color in the policy's {e placement order}. That order is
    observable — it decides which free location each new color takes —
    so a policy supplies it explicitly (see [DESIGN.md], determinism). *)

(** A reusable placement: the per-color count of copies still to place
    and the target buffer, owned by one policy. After {!create} neither
    {!want} nor {!assign} allocates. *)
type t

(** @raise Invalid_argument if [copies < 1]. *)
val create : n:int -> copies:int -> num_colors:int -> t

(** [want t color] adds [color] to the wanted set of the next {!assign}.
    @raise Invalid_argument if [color] is already wanted, or the wanted
    colors would need more than [n] locations. *)
val want : t -> Rrs_sim.Types.color -> unit

(** [rewant t] wants again exactly the colors of the previous {!assign}
    (none before the first), in one call instead of one {!want} each:
    for a policy that knows its cached set did not change.
    @raise Invalid_argument if a color is already wanted, or the
    previous [assign] raised. *)
val rewant : t -> unit

(** [assign t ~current ~order] is the target assignment (length [n]): every
    wanted color occupies exactly [copies] locations and all other
    locations are inactive ([None]). [order f] must call [f] on every
    wanted color, in placement order; it is called only when some copy is
    missing. The wanted set is emptied. The returned array is [t]'s own
    buffer, overwritten by the next call; the engine never retains it
    across mini-rounds, and no caller may write to it.

    Reuse rule: when the wanted set equals the one of the previous
    [assign] and, for every wanted color, the locations the previous
    target gave it are still its lowest-index locations in [current]
    (every location that target activated holds its color, and no other
    location below a color's highest target location holds that color),
    placement would reproduce the previous target exactly, so it is
    returned as it is after one pass over [current]. A crash, a failed
    or skipped reconfiguration, or a change to the wanted set fails the
    check and the target is recomputed.
    @raise Invalid_argument if [order] skips a wanted color that has a
    missing copy. *)
val assign :
  t ->
  current:Rrs_sim.Types.color option array ->
  order:((Rrs_sim.Types.color -> unit) -> unit) ->
  Rrs_sim.Types.color option array
