(** A set of small integers [0 .. universe - 1] with O(1) [add], [remove]
    and [mem], and O(cardinal) iteration.

    Members are kept packed in an array; [remove] moves the last member
    into the vacated slot, so the iteration order ({!nth}) is unspecified
    and must not carry meaning. Nothing allocates after {!create}. Used
    for per-color sets that change at events (eligibility, cache
    membership, nonidle colors) but are read every round. *)

type t

val create : universe:int -> t
val cardinal : t -> int
val mem : t -> int -> bool

(** No-op when already present. @raise Invalid_argument outside the
    universe. *)
val add : t -> int -> unit

(** No-op when absent. *)
val remove : t -> int -> unit

(** [nth t i] for [0 <= i < cardinal t]: the members in unspecified
    order. *)
val nth : t -> int -> int

(** Remove every member, in O(cardinal). *)
val clear : t -> unit

(** Members in ascending order (allocates; for serialization). *)
val to_sorted_list : t -> int list
