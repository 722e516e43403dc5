(** Multiset of integers, stored as an ordered [key -> count] map.

    Used by the offline exact search for its deadline and cache-content
    multisets, where persistence (sharing between search branches) is
    the point. All
    counts are kept strictly positive; removing the last occurrence of a
    key deletes it. *)

type t

val empty : t
val is_empty : t -> bool

(** Total number of elements, i.e. the sum of the counts. O(1). *)
val total : t -> int

(** Number of distinct keys. *)
val cardinal : t -> int

(** [add t key ~count] adds [count] occurrences of [key].
    @raise Invalid_argument if [count < 0]. [count = 0] is a no-op. *)
val add : t -> int -> count:int -> t

(** [remove t key ~count] removes [count] occurrences of [key].
    @raise Invalid_argument if fewer than [count] occurrences exist. *)
val remove : t -> int -> count:int -> t

(** Occurrences of [key] (0 when absent). *)
val count : t -> int -> int

(** Smallest key present. *)
val min_key : t -> int option

(** [remove_min t] removes one occurrence of the smallest key and returns
    it with the updated multiset. *)
val remove_min : t -> (int * t) option

(** [remove_all t key] removes every occurrence of [key], returning how
    many were removed. *)
val remove_all : t -> int -> int * t

(** Ascending [(key, count)] pairs. *)
val to_list : t -> (int * int) list

val of_list : (int * int) list -> t

(** [fold f t init] folds over [(key, count)] in ascending key order. *)
val fold : (int -> int -> 'a -> 'a) -> t -> 'a -> 'a

val equal : t -> t -> bool
val compare : t -> t -> int
