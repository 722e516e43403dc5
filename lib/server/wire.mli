(** The rrs session protocol: typed frames, two negotiated framings
    ([rrs-wire/1] JSON and [rrs-wire/2] binary) and one incremental
    parser ({!Stream}) shared by both.

    {b [rrs-wire/1]} framing is ["<byte length of JSON> <JSON>\n"] —
    length-delimited but still line-synced, so a peer that sends garbage
    desynchronizes only to the next newline: the server answers [error]
    and the connection (and every session behind it) survives. One frame
    per line; a line longer than {!max_frame} is discarded with bounded
    memory and reported [Malformed]. The codec reuses the project's
    hand-rolled flat-object JSON scanner ({!Rrs_sim.Event_sink.Json});
    unknown frame types and malformed fields are [Error]s, never
    exceptions.

    {b [rrs-wire/2]} framing is binary:
    [magic(2) | u32be payload length | u8 tag | payload], with zigzag
    LEB128 varints for ints, length-prefixed strings and int arrays, and
    a presence byte for options. Same frame semantics as /1, a fraction
    of the bytes and none of the JSON parse cost. Negotiated through the
    [hello] exchange: a client that says [hello] with ["rrs-wire/2"]
    gets its [hello_ok] in the current framing, then both sides switch.
    Resynchronization point is the magic pair — or a newline, so textual
    garbage still draws an immediate [error] instead of stalling the
    reader.

    Every byte a live process reads off a socket — the server's event
    loop and {!Client} alike — goes through {!Stream}.

    Each frame type is described once, in the field schema inside
    [wire.ml]: its /1 type name, its /2 tag, and its fields in wire
    order with their JSON keys and /1 defaults. Both framings' encoders
    and decoders interpret that description, so the schema is the one
    place where a frame's wire fields are declared, and where a new
    field goes (besides the {!frame} type itself). *)

val version : string
(** ["rrs-wire/1"], the default, exchanged in [hello]/[hello_ok]. *)

val version2 : string
(** ["rrs-wire/2"], the negotiated binary framing. *)

val max_frame : int
(** Upper bound on one frame, in bytes (either framing). *)

type framing = V1 | V2

(** A declared workload for admission control: per-color token-bucket
    rate numerators over one shared denominator [d_den] (jobs per
    round), plus per-color bursts ([[||]] = all zero). Optional on
    [Open] and [Feed] in {e both} framings, backward-compatibly: /1
    carries it as three extra JSON fields ([rates], [rate_den],
    [bursts]) that pre-admission servers ignore; /2 appends a
    presence-marked group that pre-admission frames simply lack — an
    undeclared frame is byte-identical to the pre-declaration encoding,
    while a declared frame sent to a pre-admission server draws that
    server's clean per-frame trailing-bytes error, not a desync. *)
type decl = { d_rates : int array; d_den : int; d_bursts : int array }

type frame =
  (* requests *)
  | Hello of { client_version : string }
  | Open of {
      session : string;
      policy : string;
      delta : int;
      bounds : int array;
      n : int;
      speed : int;
      horizon : int;
      queue_limit : int;  (** 0 = server default *)
      decl : decl option;
          (** declared arrival rates, gated by [--admission] *)
    }
  | Feed of {
      session : string;
      colors : int array;
      counts : int array;
      decl : decl option;  (** re-declaration of the session's rates *)
    }
  | Step of { session : string; rounds : int }
  | Stats of { session : string }
  | Snapshot of { session : string; path : string option }
      (** [path = Some file] saves to [file] — a bare, path-safe file
          name ([A-Za-z0-9._-]+, not dot-led) resolved inside the
          server's snapshot directory; arbitrary paths are refused.
          [None] returns the document inline. *)
  | Close of { session : string }
  | Metrics of { slow : int }
      (** Fetch the server-wide merged metrics snapshot; [slow] caps the
          number of slow-request log entries returned (0 = none). *)
  (* replies *)
  | Hello_ok of {
      server_version : string;
      server : string;
          (** Server identity (name/version, e.g. ["rrs/1.0.0"]); [""]
              from pre-observability peers. *)
      uptime_s : int;  (** whole seconds since the server started *)
    }
  | Opened of { session : string; round : int }
  | Fed of { session : string; accepted : int; buffered : int }
  | Shed of { session : string; shed : int; buffered : int; limit : int }
      (** Admission control refused the whole feed: the per-session
          buffer already holds [buffered] jobs against a limit of
          [limit]. The request's [shed] jobs are counted, not enqueued;
          the session itself is untouched. *)
  | Stepped of {
      session : string;
      round : int;  (** rounds executed so far, after this step *)
      pending : int;
      cost : int;
      reconfigs : int;
      drops : int;
      execs : int;
    }
  | Stats_ok of {
      session : string;
      round : int;
      pending : int;  (** jobs in the pool *)
      buffered : int;  (** jobs fed but not yet stepped *)
      fed : int;  (** jobs offered = [accepted + shed] *)
      accepted : int;
      shed : int;
      execs : int;
      drops : int;
      reconfigs : int;
      failed : int;
      cost : int;
      wire : int;
          (** negotiated wire version of the answering connection (1 or
              2); 0 from pre-observability peers *)
      bytes_in : int;
          (** server-side bytes read on this connection so far (the
              mirror of {!Client.bytes_sent}); 0 from older peers *)
      bytes_out : int;  (** server-side bytes written on this connection *)
    }
  | Snapshotted of {
      session : string;
      path : string option;  (** where the server saved it, if to disk *)
      doc : string option;  (** the inline document, if requested *)
    }
  | Closed of { session : string; cost : int }
  | Metrics_ok of {
      doc : string;
          (** the merged {!Rrs_obs.Probe.merged_snapshot} as one flat
              JSON object (name -> int), parseable with
              {!Rrs_sim.Event_sink.Json.parse_fields} *)
      slow : string;
          (** the slow-request log, newest first, one flat JSON object
              per line (possibly empty) *)
    }
  | Admission_reject of {
      session : string;
      color : int;
          (** the binding color, or [-1] when the aggregate deployment
              capacity binds *)
      demand : int;  (** offered/declared demand (units per [message]) *)
      supply : int;  (** the budget it violates *)
      message : string;  (** names the binding constraint *)
    }
      (** The admission gate refused the request: an [open]/[feed] whose
          declared (or offered) demand would violate the session's own
          configuration or the deployment's configured supply. A
          rejected [open] leaves no session state behind. *)
  | Error_frame of { message : string }

val encode : frame -> string
(** The /1 body: one flat JSON object, no newline. *)

val decode : string -> (frame, string) result
(** Inverse of {!encode}. *)

val encode_binary : frame -> string
(** The complete /2 wire bytes: magic, length, tag, payload. *)

val decode_binary : string -> (frame, string) result
(** Inverse of {!encode_binary} (exactly one whole frame). *)

val frame_line : string -> string
(** [frame_line json] is the framed /1 wire line (length prefix +
    newline). *)

val to_wire : framing -> frame -> string
(** The complete wire bytes of one frame under the given framing. *)

val requests : string array
(** The /1 type names of the request frames, in /2 tag order: the
    request at index [i] has tag [i + 1]. Replies have higher tags. *)

val tag : frame -> int
(** The frame's /2 tag. *)

type read_result =
  | Frame of frame
  | Malformed of string
      (** Bad framing, over-long frame, codec or frame error; the parser
          is positioned after the offending input (next newline for /1,
          next newline or magic pair for /2). *)
  | Eof

(** Incremental (push-style) frame extraction: the caller feeds whatever
    bytes a [read(2)] returned and asks for the next complete frame,
    getting [None] when more bytes are needed instead of blocking. The
    emitted results — frames, malformed messages, resync positions, EOF
    handling — do not depend on how the bytes were split into feeds
    (pinned by a qcheck suite, which also compares them against a
    blocking pull-reader reference model). *)
module Stream : sig
  type t

  val create : framing -> t

  val create_http : unit -> t
  (** A stream of HTTP/1.1 request heads, the framing of the metrics
      listener: a head (up to its first blank line, or cut short by
      EOF) is a [Frame (Metrics { slow = 0 })], and one that runs past
      8 KiB without ending is [Malformed]. Framing switches do not
      apply. *)

  val framing : t -> framing

  val set_framing : t -> framing -> unit
  (** Reinterpret from the next frame boundary on — the hello
      negotiation switch. Any buffered bytes belong to the next frame
      and are parsed under the new framing. *)

  val feed : t -> Bytes.t -> int -> int -> unit
  (** Append [len] bytes at [off]. Raises [Invalid_argument] after
      {!feed_eof}. *)

  val feed_string : t -> string -> unit

  val feed_eof : t -> unit
  (** The peer closed its write side; pending partial input is resolved
      (a newline-less trailing /1 line still parses, a truncated /2
      header or payload is [Eof]). *)

  val next : t -> read_result option
  (** The next complete result, or [None] when more bytes are needed.
      Call in a loop after every {!feed}: one feed can complete several
      frames. After [Some Eof], every later call returns [Some Eof]. *)

  val buffered : t -> int
  (** Bytes held but not yet consumed by {!next} — the event loop's
      per-connection backpressure signal. *)

  val fed : t -> int
  (** Total bytes ever fed (the stats [bytes_in] and
      {!Client.bytes_received} accounting). *)
end
