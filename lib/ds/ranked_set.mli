(** A set of small integers [0 .. universe - 1] kept sorted by an integer
    rank key: member [x] with key [(k1, k2)] ranks before member [y] when
    [(k1, k2, x)] is lexicographically smaller than [y]'s. The order is
    total, so {!nth} is well defined.

    Built for rankings whose keys change only at events: [add], [remove]
    and re-keying cost a binary search plus one [Array.blit] of the
    members in between, and reading the [k] best is [k] array reads.
    Nothing allocates after {!create}. *)

type t

val create : universe:int -> t
val cardinal : t -> int
val mem : t -> int -> bool

(** [add t x ~k1 ~k2] inserts [x] with key [(k1, k2)], or moves it there
    when already a member. @raise Invalid_argument outside the universe. *)
val add : t -> int -> k1:int -> k2:int -> unit

(** No-op when absent. *)
val remove : t -> int -> unit

(** [nth t i], [0 <= i < cardinal t]: the member of rank [i] (0 = best). *)
val nth : t -> int -> int

val clear : t -> unit
