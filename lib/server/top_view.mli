(** The [rrs top] display: one render of a polled metrics document
    against the previous poll.

    Rates are per-second deltas between consecutive polls of monotone
    [_total] counters. Two hazards are handled here rather than in the
    CLI loop:

    - {b restart}: a server restart resets every counter, so a naive
      delta goes hugely negative. A poll whose [uptime_s] or
      [requests_total] moved backwards is flagged ({!restarted}): its
      rates render as ["-/s"] (no baseline) and the header carries a
      [[server restarted]] marker. The next poll pair is consistent
      again and rates resume.
    - {b skew}: counters are not read atomically (the loop records
      while the reply is built), so deltas within one server life can
      be slightly negative; they clamp to zero. *)

type sample = {
  at : float;  (** client-side poll time, seconds *)
  fields : (string * Rrs_sim.Event_sink.Json.value) list;
      (** the parsed metrics document *)
}

(** Did the server restart between [previous] and this sample? *)
val restarted : previous:sample -> sample -> bool

(** [rate ~previous sample name]: the counter's per-second rate as a
    padded display string; ["-/s"] without a usable baseline. *)
val rate : previous:sample option -> sample -> string -> string

(** The full display: header, rates, admission line (when the server
    exposes the gate gauges), per-kind latency table, slow log. *)
val render : previous:sample option -> sample -> slow:string list -> string
