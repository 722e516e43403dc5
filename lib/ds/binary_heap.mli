(** Array-backed binary min-heap, functorized over the element order.

    The heap is a mutable structure intended for hot scheduling loops: all
    operations are allocation-free except when the backing array grows.
    [pop_min] and [push] are [O(log size)]; [peek_min] is [O(1)]. *)

module type ORDERED = sig
  type t

  (** Total order; [compare a b < 0] means [a] has higher priority (is
      "smaller") than [b]. *)
  val compare : t -> t -> int
end

module Make (Elt : ORDERED) : sig
  type t

  (** [create ?capacity ()] is an empty heap. The first push allocates
      room for [capacity] elements (default 16), so up to [capacity]
      pushes never regrow the backing array; past that the heap doubles
      on demand. *)
  val create : ?capacity:int -> unit -> t

  (** [of_list xs] is a heap holding exactly the elements of [xs], built in
      [O(|xs|)] by bottom-up heapification. *)
  val of_list : Elt.t list -> t

  val length : t -> int
  val is_empty : t -> bool

  val push : t -> Elt.t -> unit

  (** [peek_min h] is the minimum element. @raise Not_found if empty. *)
  val peek_min : t -> Elt.t

  (** [pop_min h] removes and returns the minimum element.
      @raise Not_found if empty. *)
  val pop_min : t -> Elt.t

  (** [pop_min_opt h] is [Some (pop_min h)] or [None] when empty. *)
  val pop_min_opt : t -> Elt.t option

  (** Remove every element. Keeps the backing array. *)
  val clear : t -> unit

  (** [to_sorted_list h] is the elements in ascending order; the heap is
      left unchanged ([O(n log n)], allocates). *)
  val to_sorted_list : t -> Elt.t list

  (** Iterate in unspecified (heap) order. *)
  val iter : (Elt.t -> unit) -> t -> unit

  (** Internal invariant check, used by the test suite: every parent is
      [<=] its children. *)
  val check_invariant : t -> bool
end
