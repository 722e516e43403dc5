(** Serving-layer metrics: the event loop's probe registry, request
    spans and a bounded slow-request log.

    A metrics plane is owned by the process's event loop: only the loop
    records into its {!Rrs_obs.Probe.registry} and slow-request ring,
    and only the loop reads them ({!merged}, {!slow_log}), so there is
    no lock and the per-frame hot path costs what a Probe costs — one
    branch when disabled, no allocation. A reader on another domain
    (the OpenMetrics responder) asks the loop for a fresh copy
    ({!Event_loop.post}).

    {b Series}:
    counters [requests_total], [requests_<kind>], [errors_total],
    [malformed_total], [rounds_total], [shed_jobs_total], [slow_total];
    histograms [req_latency_us_<kind>] (µs), [lock_wait_us], [step_us],
    [bytes_in], [bytes_out] — where [<kind>] ranges over {!kinds}.

    [lock_wait_us] records 0 for every request: sessions have no lock
    since the event loop owns them. It stays registered because
    existing readers require it (the perfbench traced run reads
    [lock_wait_us_p99], the CI observability smoke checks
    [rrs_lock_wait_us_count]); its count still counts requests. *)

(** {1 Request kinds} *)

(** Request-frame kind names, in index order; the last entry ([error])
    buckets frames that never resolved to a request (malformed input,
    replies sent as requests). *)
val kinds : string array

val error_kind : int
val kind_index : Wire.frame -> int
val kind_name : int -> string

(** {1 Spans} *)

(** One request's trace: timings in µs, sizes in bytes. Mutable and
    meant to be reused per connection ({!reset_span}), so the hot path
    allocates nothing per frame. *)
type span = {
  mutable s_kind : int;
  mutable s_session : string;
  mutable s_wire : int;  (** negotiated wire version *)
  mutable s_handle_us : int;  (** handler *)
  mutable s_write_us : int;  (** encode + write + flush *)
  mutable s_bytes_in : int;
  mutable s_bytes_out : int;
  mutable s_rounds : int;  (** rounds executed, step frames *)
  mutable s_shed : int;  (** jobs shed, feed frames *)
  mutable s_error : bool;  (** the reply was an error frame *)
}

val span : unit -> span
val reset_span : span -> unit

(** Server-side request latency: handler + reply write. *)
val span_latency_us : span -> int

(** {1 The metrics plane} *)

type t

val default_slow_threshold_us : int
(** 10 ms. *)

val default_slow_capacity : int
(** 64 entries. *)

(** 0 (or absent) [slow_threshold_us]/[slow_capacity] mean the
    defaults. *)
val create : ?slow_threshold_us:int -> ?slow_capacity:int -> unit -> t

val slow_threshold_us : t -> int
val uptime_s : t -> int

(** [record t span] folds one finished span into the registry and,
    when its latency reaches the slow threshold, into the slow ring. *)
val record : t -> span -> unit

(** Count a frame that failed to decode: bumps [malformed_total] and
    records the span under the [error] kind. *)
val record_malformed : t -> span -> unit

(** {1 Reading} *)

(** One slow request, as recorded. *)
type slow_entry = {
  e_at_us : int;  (** µs after server start the request completed *)
  e_kind : string;
  e_session : string;
  e_wire : int;
  e_latency_us : int;
  e_handle_us : int;
  e_write_us : int;
  e_bytes_in : int;
  e_bytes_out : int;
  e_error : bool;
}

(** Newest first, at most [max] entries (default: everything held). *)
val slow_log : ?max:int -> t -> slow_entry list

(** One flat JSON object (ints only, booleans as 0/1), parseable with
    {!Rrs_sim.Event_sink.Json.parse_fields}. *)
val slow_to_json : slow_entry -> string

(** A fresh copy of the registry (see {!Rrs_obs.Probe.merge}), for a
    reader to add its own gauges to. *)
val merged : t -> Rrs_obs.Probe.registry

(** A registry snapshot as one flat JSON object (name -> int), the
    [metrics_ok.doc] payload — parseable with
    {!Rrs_sim.Event_sink.Json.parse_fields}. *)
val registry_doc : Rrs_obs.Probe.registry -> string
