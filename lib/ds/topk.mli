(** Streaming k-best selection.

    Select the [k] smallest elements (under a comparison) out of a stream
    without sorting the whole stream: a size-[k] max-heap of the current
    best candidates is maintained, so the cost is [O(n log k)].

    The scheduling policies do not select per round: their rankings are
    kept sorted as events happen ({!Ranked_set}), and a round reads the
    best colors as a prefix. *)

(** [select ~compare ~k iter] returns the [k] smallest elements (ascending
    order by [compare]) among those produced by [iter]. [iter f] must call
    [f] once per element. If fewer than [k] elements are produced, all of
    them are returned. [k <= 0] yields []. *)
val select : compare:('a -> 'a -> int) -> k:int -> (('a -> unit) -> unit) -> 'a list

(** [select_list ~compare ~k xs] is [select] over a list. *)
val select_list : compare:('a -> 'a -> int) -> k:int -> 'a list -> 'a list
