(** Shared vocabulary of the reconfigurable-resource-scheduling model.

    Jobs are unit-size and characterized by a color and an arrival round;
    the per-color delay bound [D_l] lives in the instance (the paper's
    delay field is per color). A job arriving at round [a] with bound [D]
    has deadline [a + D]: it may execute in any round [r] with
    [a <= r < a + D] and is dropped in the drop phase of round [a + D]. *)

(** Job / resource color. Colors are small dense integers; black (the
    initial resource state) is represented by [None] at the resource. *)
type color = int

(** A request: the multiset of jobs arriving in one round, grouped as
    [(color, count)] pairs with positive counts and distinct colors. *)
type request = (color * int) list

(** A single concrete job (used by validators and offline schedules). *)
type job = {
  color : color;
  arrival : int;
  deadline : int; (* arrival + bound of its color *)
}

(** Phases of a round, in execution order. *)
type phase = Drop | Arrival | Reconfiguration | Execution

val phase_to_string : phase -> string

(** [is_normalized r] holds when [r]'s colors are strictly ascending and
    every count is positive: exactly when [normalize_request r] returns
    [r] itself. One list scan, no allocation. *)
val is_normalized : request -> bool

(** Normalize a request: merge duplicate colors, drop zero counts, sort by
    color. An already-normalized request is returned as is (one scan, no
    allocation); any other costs one sort, [O(k log k)] for [k] entries.
    @raise Invalid_argument on a negative count. *)
val normalize_request : request -> request

(** Total number of jobs in a request. *)
val request_size : request -> int

val pp_request : Format.formatter -> request -> unit
