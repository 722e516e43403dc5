(** Per-shard health tracking for the router.

    A shard starts [Up]; [fail_threshold] consecutive failures trip it
    to [Down]; one success ([ok]) re-admits it. While down, [probe_due]
    follows an exponential backoff schedule ([probe_interval_ms]
    doubling to [probe_max_ms]) reset on every re-admit.

    Not thread-safe: the router's event loop owns every shard's
    machine. All timing is via explicit [now_ms] arguments so tests can
    drive a synthetic clock. *)

type state = Up | Down
type t

val create :
  ?fail_threshold:int ->
  ?probe_interval_ms:int ->
  ?probe_max_ms:int ->
  unit ->
  t

val state : t -> state
val is_up : t -> bool

val ok : t -> unit
(** Record a success: resets the failure streak and re-admits a [Down]
    shard. *)

val fail : t -> now_ms:int -> reason:string -> unit
(** Record a request/connect failure. Trips [Up] -> [Down] at
    [fail_threshold] consecutive failures and schedules the first
    probe. *)

val probe_failed : t -> now_ms:int -> reason:string -> unit
(** Record a failed health probe: doubles the probe backoff (capped)
    and schedules the next probe. *)

val probe_due : t -> now_ms:int -> bool
(** True when the shard is [Down] and its next probe time has come. *)

val next_probe_ms : t -> int option
(** When the next probe is due, while the shard is [Down]. *)

val last_error : t -> string

val counters : t -> int * int * int
(** [(failures_total, trips_total, readmits_total)]. *)
