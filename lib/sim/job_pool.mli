(** Pending-job store: per-color deadline multisets plus an expiry wheel.

    The engine owns one pool per run. Jobs of one color are
    indistinguishable except for their deadline, so they are stored as
    [deadline -> count] multisets; executing a job of a color always
    consumes the earliest deadline (within one color this is optimal and
    matches every algorithm in the paper).

    Each multiset is a run-length FIFO in a reused circular buffer: every
    engine arrival has deadline [round + bound], so per color deadlines
    arrive in nondecreasing order and [add] appends at the back, while
    execution and expiry consume the front. An out-of-order deadline
    (only direct callers produce one) is inserted at its place in
    O(runs). The drop phase reuses its scratch buffers; execution
    ({!execute}) and adds to an existing run allocate nothing. *)

type t

val create : num_colors:int -> t

(** Number of pending jobs of [color]. *)
val pending : t -> Types.color -> int

(** A color is nonidle when it has at least one pending job. *)
val nonidle : t -> Types.color -> bool

(** Earliest pending deadline of [color], if any. *)
val earliest_deadline : t -> Types.color -> int option

(** Total pending jobs over all colors. *)
val total_pending : t -> int

(** Colors with at least one pending job (ascending). *)
val nonidle_colors : t -> Types.color list

(** Deadline multiset of a color as ascending [(deadline, count)] pairs. *)
val deadlines : t -> Types.color -> (int * int) list

(** [add t ~color ~deadline ~count] registers newly arrived jobs.
    @raise Invalid_argument if [deadline] is in the past of the pool's
    expiry clock. *)
val add : t -> color:Types.color -> deadline:int -> count:int -> unit

(** [drop_expired t ~round] implements the drop phase of [round]: removes
    every pending job with deadline [<= round] and returns the dropped
    counts as [(color, count)] pairs (ascending color). Must be called
    with nondecreasing rounds. *)
val drop_expired : t -> round:int -> (Types.color * int) list

(** [execute_one t ~color ~round] consumes the earliest-deadline pending
    job of [color], returning its deadline. Returns [None] when the color
    is idle. @raise Invalid_argument if the earliest deadline is
    [<= round] (an expired job survived a drop phase — engine bug). *)
val execute_one : t -> color:Types.color -> round:int -> int option

(** [execute] is {!execute_one} without the option: the consumed job's
    deadline, or [-1] when the color is idle. *)
val execute : t -> color:Types.color -> round:int -> int

(** Deep copy, O(pending runs). The copy preserves
    the pool's expiry clock: it rejects the same past deadlines as the
    original and its next [drop_expired] resumes from the original's
    round, not from 0. *)
val copy : t -> t
