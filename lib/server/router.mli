(** The sharding router: one process speaking both [rrs-wire] framings
    on the front, multiplexing session traffic to N shard servers on
    the back.

    {b One loop}: a single {!Event_loop} domain serves every front
    connection and polls its shard legs and health probes too. A front
    connection keeps one leg per shard, dialled by the loop
    (non-blocking connect, [/2] hello, then the forwarded frames), and
    is busy while its frame is at a shard; a stalled shard therefore
    holds only the connections waiting on it, each for at most
    [timeout_ms]. The poll timeout honours the earliest leg deadline.

    {b Ownership} is consistent hashing on session name over ALL
    configured shards (see {!Ring}): stable under restarts, minimal
    remapping under topology change. A crashed shard keeps its keys —
    its sessions live in its own snapshot directory — so failover is
    supervisor restart + re-admission, not remapping.

    {b Health}: connect failures and per-call deadlines feed a
    per-shard {!Health} machine; a down shard's requests are refused
    immediately with a clean [error] frame (the router never hangs a
    client on a dead backend). While a shard is down the loop probes it
    on the backoff schedule, on a leg of its own (connect and [/1]
    hello within [connect_timeout_ms]), and re-admits it after a
    successful hello; the poll timeout honours the next due probe. The
    loop owns the health state; {!shards_up} is published for other
    domains.

    {b Locally handled}: [hello] (per-connection framing negotiation,
    router identity) and [metrics] (the router's own merged view:
    front-side spans plus [shards_total]/[shards_up]/
    [shard_failures_total]/[shard_trips_total]/[shard_readmits_total]/
    [routed_<label>]/[errors_<label>]/[routed_shard_down_total]).
    Everything session-bearing is forwarded verbatim; replies pass
    through unchanged except for the frame-size cap: the front counts
    and caps frames through the same {!Handler} as {!Server}, so a shard
    reply that re-encodes past {!Wire.max_frame} in the front's framing
    becomes a clean [error], and [admission_reject] counts as an
    error. *)

(** Consistent-hash ring with virtual nodes (FNV-1a 64-bit). *)
module Ring : sig
  type t

  val default_replicas : int

  val make : ?replicas:int -> string array -> t
  (** [make labels] builds the ring; every label contributes
      [replicas] (default {!default_replicas}) points.
      @raise Invalid_argument on an empty shard set. *)

  val size : t -> int
  val labels : t -> string array

  val index : t -> string -> int
  (** Owner of a key, as an index into [labels] as given to {!make}. *)

  val shard : t -> string -> string
  (** Owner of a key, as its label. *)

  val hash : string -> int64
  (** The ring's key hash (FNV-1a 64-bit through a murmur3 fmix64
      finalizer, so near-identical keys still scatter), exposed for
      tests. *)
end

type shard_spec = { shard_label : string; shard_address : Net.address }

type config = {
  address : Net.address;  (** front listener *)
  shards : shard_spec list;
  max_wire : int;  (** front framings negotiable; [1] pins [rrs-wire/1] *)
  timeout_ms : int;
      (** per-backend-call deadline; a new leg's hello gets its own *)
  connect_timeout_ms : int;  (** backend connect budget *)
  fail_threshold : int;  (** consecutive failures tripping a shard down *)
  probe_interval_ms : int;  (** first re-admission probe delay *)
  probe_max_ms : int;  (** probe backoff cap *)
  replicas : int;  (** ring virtual nodes per shard; 0 = default *)
  router_id : string;  (** identity surfaced in [hello_ok] *)
}

val default_config : address:Net.address -> shards:shard_spec list -> config

type t

(** Bind the front listener, spawn the loop's domain, return
    immediately.
    @raise Failure on an empty or duplicate-labeled shard set, or an
    unresolvable listen host. *)
val start : config -> t

(** For [Tcp] with port 0: the port the kernel picked. *)
val bound_port : t -> int option

val shards_up : t -> int
(** Shards currently admitted (health [Up]); safe from any domain. *)

val shard_of_session : t -> string -> string
(** The owning shard's label for a session name (ring lookup). *)

val stop : t -> unit

(** [start] + block until SIGTERM/SIGINT + [stop]. *)
val serve : config -> unit
