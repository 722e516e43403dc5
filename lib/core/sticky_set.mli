(** The sticky cached set of the EDF-style policies: the cache of
    {!Policy_edf} and {!Seq_edf}, and the EDF half of {!Lru_edf_core}.
    Colors are admitted one at a time and stay until evicted.

    Membership is a dense set, so [mem] and iteration cost no hashing.
    The {e order of record} — the placement order that decides which free
    location each newly cached color takes — is the iteration order of a
    [Hashtbl] created with [~random:false], under the exact sequence of
    [replace]/[remove]/[reset] calls the set has seen. It therefore
    depends only on the admission history, never on the process's hash
    seed, and a restore that re-adds the serialized (ascending) members
    rebuilds it as it has always been rebuilt. *)

type t

val create : num_colors:int -> t
val cardinal : t -> int
val mem : t -> Rrs_sim.Types.color -> bool

(** [nth t i], [0 <= i < cardinal t]: members in unspecified order. *)
val nth : t -> int -> Rrs_sim.Types.color

(** No-op when present. *)
val add : t -> Rrs_sim.Types.color -> unit

(** No-op when absent. *)
val remove : t -> Rrs_sim.Types.color -> unit

(** [iter_placement_order t f] calls [f] on every member in the order of
    record. *)
val iter_placement_order : t -> (Rrs_sim.Types.color -> unit) -> unit

(** Members, ascending (the serialized form). *)
val to_sorted_list : t -> Rrs_sim.Types.color list

(** Empty the set and add [colors] in the given order. *)
val restore : t -> Rrs_sim.Types.color array -> unit
