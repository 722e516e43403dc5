(** Analysis instrumentation helpers (Sections 3.2 and 3.4): accessors
    for the counters policies report via [stats], super-epoch counting,
    and the Lemma 3.3 / 3.4 bounds used by the lemma-level experiments. *)

(** Look up a counter in a policy's stats list (0 when absent). *)
val stat : (string * int) list -> string -> int

(** Epochs including trailing incomplete ones (Section 3.2's
    [numEpochs]). *)
val num_epochs : (string * int) list -> int

val eligible_drops : (string * int) list -> int
val ineligible_drops : (string * int) list -> int
val wraps : (string * int) list -> int

(** Incremental super-epoch counter (Section 3.4): a super-epoch ends
    the moment at least [watermark] distinct colors have updated their
    timestamps since it started; a trailing partial super-epoch counts
    when nonempty. For Theorem 1 the watermark is [2m = n/4]. The state
    is a dense set over the colors tracked (grown when a larger color
    first arrives), not the event log, and a tracked event neither
    hashes nor allocates. *)
type tracker

(** @raise Invalid_argument if [watermark < 1]. *)
val tracker : watermark:int -> tracker

(** Feed one timestamp-update event. Events must arrive in chronological
    order (as {!Color_state}'s [on_timestamp] hook delivers them).
    @raise Invalid_argument on a negative color. *)
val track : tracker -> color:int -> unit

(** Super-epochs so far, counting a nonempty trailing partial one. *)
val tracker_count : tracker -> int

(** Completed super-epochs (excludes the trailing partial one). For
    serialization. *)
val tracker_complete : tracker -> int

(** Distinct colors seen in the current (partial) super-epoch, ascending.
    For serialization. *)
val tracker_seen : tracker -> int list

(** Overwrite the tracker with serialized state. *)
val tracker_restore : tracker -> complete:int -> seen:int list -> unit

(** Count super-epochs from a full chronological [(round, color)] event
    log — the batch form of {!tracker}.
    @raise Invalid_argument if [watermark < 1]. *)
val super_epochs : watermark:int -> (int * int) list -> int

(** Lemma 3.3: reconfiguration cost <= [4 * numEpochs * delta]. *)
val lemma_3_3_bound : delta:int -> (string * int) list -> int

(** Lemma 3.4: ineligible drop cost <= [numEpochs * delta]. *)
val lemma_3_4_bound : delta:int -> (string * int) list -> int
