(** Streaming destination for ledger events and per-round snapshots.

    The sink replaces the ledger's historical grow-forever event list: a
    [Memory] sink retains events for {!Schedule.validate} exactly as
    before, while a [Jsonl] sink streams every event (plus engine-written
    round snapshots and a closing summary) as one JSON object per line —
    schema {!schema_version} ([rrs-events/2]) — so horizon-length runs
    keep bounded resident memory. [Null] discards everything.

    JSONL line shapes (first line is always the header):
    {v
    {"schema":"rrs-events/2","name":...,"delta":D,"n":N,"speed":S,
     "horizon":H,"colors":C,"bounds":[...]}
    {"type":"reconfig","round":r,"mini":m,"location":l,"previous":p,"next":c}
    {"type":"drop","round":r,"color":c,"count":k}
    {"type":"execute","round":r,"mini":m,"location":l,"color":c,"deadline":d}
    {"type":"crash","round":r,"location":l}
    {"type":"repair","round":r,"location":l}
    {"type":"reconfig_failed","round":r,"mini":m,"location":l,
     "previous":p,"attempted":c}
    {"type":"round","round":r,"pending":q,"reconfigs":a,"drops":b,"execs":e}
    {"type":"summary","cost":C,"reconfig_count":R,"reconfig_cost":X,
     "failed_reconfig_count":F,"drop_count":D,"exec_count":E}
    {"type":"restored","round":r,"reconfigs":a,"failed":f,"drops":b,"execs":e}
    {"type":"aborted","round":r,"reason":"..."}
    v}
    ["previous"] is [null] for a black (unconfigured) location. The
    summary line lets a reader detect truncated files: totals folded from
    the event lines must match it exactly. A run that dies mid-stream (a
    policy exception) ends with an ["aborted"] record instead of the
    summary, so readers can distinguish an abort from silent truncation.

    rrs-events/2 extends rrs-events/1 with the [crash], [repair],
    [reconfig_failed] and [aborted] line types and the summary's
    [failed_reconfig_count] field; {!parse_line} still accepts
    rrs-events/1 files (the new field defaults to 0).

    A ["restored"] line (written by {!write_restored} right after the
    header) marks a trace whose stepper was seeded from an [rrs-snap/2]
    checkpoint: the stream carries only events from [round] on, and the
    line's counters are the totals already accumulated before it.
    Readers folding event counts (e.g. [Rrs_stats.Report]) seed their
    totals from it so the closing summary still reconciles. This is a
    documented in-version extension of rrs-events/2 — traces without the
    line are unchanged. *)

type event =
  | Reconfig of { round : int; mini_round : int; location : int;
                  previous : Types.color option; next : Types.color }
  | Drop of { round : int; color : Types.color; count : int }
  | Execute of { round : int; mini_round : int; location : int;
                 color : Types.color; deadline : int }
  | Crash of { round : int; location : int }
      (* the location goes offline at the start of [round] and loses its
         color *)
  | Repair of { round : int; location : int }
      (* the location is back online (black) from [round] on *)
  | Reconfig_failed of { round : int; mini_round : int; location : int;
                         previous : Types.color option;
                         attempted : Types.color }
      (* a Configure that paid [Delta] but left [previous] in place *)

type t =
  | Null
  | Memory of event list ref (* reverse chronological *)
  | Jsonl of out_channel

(** A fresh [Memory] sink. *)
val memory : unit -> t

(** [record t event] appends to a [Memory] sink or writes one JSONL line;
    no-op on [Null]. *)
val record : t -> event -> unit

(** Retained events in chronological order ([] for [Null] and [Jsonl]).*)
val events : t -> event list

val schema_version : string

(** Schemas {!parse_line} accepts: rrs-events/1 and rrs-events/2. *)
val supported_schemas : string list

(** Header, round-snapshot, summary and aborted lines; no-ops unless
    [Jsonl]. [failed] counts the reconfigurations that paid [Delta] but
    left the old color (they are included in [reconfigs]). *)
val write_header :
  t -> name:string -> delta:int -> n:int -> speed:int -> horizon:int ->
  bounds:int array -> unit

val write_round :
  t -> round:int -> pending:int -> reconfigs:int -> drops:int -> execs:int ->
  unit

val write_summary :
  t -> delta:int -> reconfigs:int -> failed:int -> drops:int -> execs:int ->
  unit

(** Marks a trace seeded from a checkpoint at [round] with the totals
    accumulated before it ([failed] included in [reconfigs], as in the
    summary). Written once, right after the header. *)
val write_restored :
  t -> round:int -> reconfigs:int -> failed:int -> drops:int -> execs:int ->
  unit

(** Closing record of a run that died before its summary (e.g. a policy
    exception at [round]). *)
val write_aborted : t -> round:int -> reason:string -> unit

(** Flush the underlying channel ([Jsonl] only). *)
val flush : t -> unit

(** {1 Reading JSONL back}

    Minimal parser for the flat objects this module writes (ints,
    strings, [null], one int array). Unknown line types and unknown
    fields are errors — the schema is versioned, not open. *)

(** The flat-object scanner, exposed for the other JSONL readers of the
    project ([Fault] plans share it). All accessors raise
    {!Json.Parse_error}. *)
module Json : sig
  type value = Vint of int | Vstr of string | Vnull | Vints of int array

  exception Parse_error of string

  (** Quote and escape a string as a JSON string literal. *)
  val escape : string -> string

  (** {!escape}, appended to a buffer. *)
  val escape_into : Buffer.t -> string -> unit

  (** Render an int list as a JSON array literal, e.g. [[1,2,3]]. *)
  val ints : int list -> string

  (** Parse one [{"key":value,...}] object. @raise Parse_error *)
  val parse_fields : string -> (string * value) list

  val field : (string * value) list -> string -> value
  val int_field : (string * value) list -> string -> int

  (** Missing key yields [default]; a present non-int is an error. *)
  val opt_int_field : (string * value) list -> string -> default:int -> int

  val str_field : (string * value) list -> string -> string
  val ints_field : (string * value) list -> string -> int array

  (** [null] or int. *)
  val color_opt_field : (string * value) list -> string -> int option
end

type header = {
  hdr_name : string;
  hdr_delta : int;
  hdr_n : int;
  hdr_speed : int;
  hdr_horizon : int;
  hdr_bounds : int array;
}

type round_snapshot = {
  snap_round : int;
  snap_pending : int;
  snap_reconfigs : int;
  snap_drops : int;
  snap_execs : int;
}

type summary = {
  sum_cost : int;
  sum_reconfig_count : int; (* paid reconfigurations, failed included *)
  sum_reconfig_cost : int;
  sum_failed_reconfig_count : int; (* 0 in rrs-events/1 files *)
  sum_drop_count : int;
  sum_exec_count : int;
}

type line =
  | Header of header
  | Event of event
  | Round of round_snapshot
  | Summary of summary
  | Restored of { res_round : int; res_reconfigs : int; res_failed : int;
                  res_drops : int; res_execs : int }
  | Aborted of { ab_round : int; ab_reason : string }

(** Parse one JSONL line (either schema version). *)
val parse_line : string -> (line, string) result
