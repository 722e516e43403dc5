module Probe = Rrs_obs.Probe
module Clock = Rrs_obs.Clock
module Json = Rrs_sim.Event_sink.Json

(* Request kinds, indexed by [kind_index]: the request frames in /2 tag
   order, then [error], the bucket for frames that never resolved to a
   request (malformed input, replies sent as requests). *)
let kinds = Array.append Wire.requests [| "error" |]

let error_kind = Array.length Wire.requests

let kind_index frame =
  let tag = Wire.tag frame in
  if tag <= error_kind then tag - 1 else error_kind

let step_kind = kind_index (Wire.Step { session = ""; rounds = 1 })

let kind_name index = kinds.(index)

(* Power-of-two microsecond buckets up to ~1 s; slower requests land in
   the overflow bucket and report through [max]/the slow log. *)
let latency_buckets =
  [| 1; 2; 4; 8; 16; 32; 64; 128; 256; 512; 1024; 2048; 4096; 8192; 16384;
     32768; 65536; 131072; 262144; 524288; 1048576 |]

(* Frame sizes: fine-grained at the bottom (most frames are tens of
   bytes), sparse up to the 4 MiB frame cap. *)
let bytes_buckets =
  [| 0; 16; 32; 64; 128; 256; 512; 1024; 4096; 16384; 65536; 262144; 1048576;
     4194304 |]

(* The event loop's registry plus typed handles, so the hot path
   records without locks at the Probe one-branch cost. A reader folds
   it into a fresh registry with [Probe.merge] on demand. *)
type series = {
  registry : Probe.registry;
  requests_total : Probe.counter;
  requests_by : Probe.counter array; (* requests_<kind> *)
  errors_total : Probe.counter; (* error replies sent *)
  malformed_total : Probe.counter; (* frames that failed to decode *)
  rounds_total : Probe.counter; (* rounds executed by step frames *)
  shed_jobs_total : Probe.counter; (* jobs refused by admission control *)
  slow_total : Probe.counter; (* spans over the slow threshold *)
  req_latency : Probe.histogram array; (* req_latency_us_<kind> *)
  lock_wait : Probe.histogram; (* lock_wait_us *)
  step_time : Probe.histogram; (* step_us *)
  bytes_in_h : Probe.histogram; (* bytes_in *)
  bytes_out_h : Probe.histogram; (* bytes_out *)
}

let make_series () =
  let registry = Probe.create_registry () in
  {
    registry;
    requests_total = Probe.counter registry "requests_total";
    requests_by =
      Array.map (fun k -> Probe.counter registry ("requests_" ^ k)) kinds;
    errors_total = Probe.counter registry "errors_total";
    malformed_total = Probe.counter registry "malformed_total";
    rounds_total = Probe.counter registry "rounds_total";
    shed_jobs_total = Probe.counter registry "shed_jobs_total";
    slow_total = Probe.counter registry "slow_total";
    req_latency =
      Array.map
        (fun k ->
          Probe.histogram registry ~buckets:latency_buckets
            ("req_latency_us_" ^ k))
        kinds;
    lock_wait = Probe.histogram registry ~buckets:latency_buckets "lock_wait_us";
    step_time = Probe.histogram registry ~buckets:latency_buckets "step_us";
    bytes_in_h = Probe.histogram registry ~buckets:bytes_buckets "bytes_in";
    bytes_out_h = Probe.histogram registry ~buckets:bytes_buckets "bytes_out";
  }

(* One request's trace, filled in by the connection loop and recorded
   whole. Mutable and reused per connection: the hot path allocates
   nothing per frame. *)
type span = {
  mutable s_kind : int;
  mutable s_session : string;
  mutable s_wire : int;
  mutable s_lock_us : int; (* waiting on the session mutex *)
  mutable s_handle_us : int; (* handler, lock wait included *)
  mutable s_write_us : int; (* encode + write + flush *)
  mutable s_bytes_in : int;
  mutable s_bytes_out : int;
  mutable s_rounds : int; (* rounds executed, step frames *)
  mutable s_shed : int; (* jobs shed, feed frames *)
  mutable s_error : bool; (* the reply was an error frame *)
}

let span () =
  {
    s_kind = error_kind;
    s_session = "";
    s_wire = 1;
    s_lock_us = 0;
    s_handle_us = 0;
    s_write_us = 0;
    s_bytes_in = 0;
    s_bytes_out = 0;
    s_rounds = 0;
    s_shed = 0;
    s_error = false;
  }

let reset_span s =
  s.s_kind <- error_kind;
  s.s_session <- "";
  s.s_lock_us <- 0;
  s.s_handle_us <- 0;
  s.s_write_us <- 0;
  s.s_bytes_in <- 0;
  s.s_bytes_out <- 0;
  s.s_rounds <- 0;
  s.s_shed <- 0;
  s.s_error <- false

(* Request latency as the client could observe it server-side: handler
   (lock wait included) + reply write. *)
let span_latency_us s = s.s_handle_us + s.s_write_us

type slow_entry = {
  e_at_us : int; (* µs after server start the request completed *)
  e_kind : string;
  e_session : string;
  e_wire : int;
  e_latency_us : int;
  e_lock_us : int;
  e_handle_us : int;
  e_write_us : int;
  e_bytes_in : int;
  e_bytes_out : int;
  e_error : bool;
}

type t = {
  series : series;
  started_ns : int64;
  slow_threshold_us : int;
  (* The slow log is the one shared structure, and its mutex is taken
     only for requests over the threshold — the per-frame hot path
     stays lock-free. *)
  slow_mutex : Mutex.t;
  slow : slow_entry option array; (* ring, [slow_pushed mod capacity] *)
  mutable slow_pushed : int;
}

let default_slow_threshold_us = 10_000
let default_slow_capacity = 64

let create ?(slow_threshold_us = 0) ?(slow_capacity = 0) () =
  let slow_threshold_us =
    if slow_threshold_us > 0 then slow_threshold_us
    else default_slow_threshold_us
  in
  let slow_capacity =
    if slow_capacity > 0 then slow_capacity else default_slow_capacity
  in
  {
    series = make_series ();
    started_ns = Clock.now_ns ();
    slow_threshold_us;
    slow_mutex = Mutex.create ();
    slow = Array.make slow_capacity None;
    slow_pushed = 0;
  }

let slow_threshold_us t = t.slow_threshold_us

let uptime_ns t = Int64.sub (Clock.now_ns ()) t.started_ns
let uptime_s t = Int64.to_int (Int64.div (uptime_ns t) 1_000_000_000L)

let push_slow t entry =
  Mutex.lock t.slow_mutex;
  t.slow.(t.slow_pushed mod Array.length t.slow) <- Some entry;
  t.slow_pushed <- t.slow_pushed + 1;
  Mutex.unlock t.slow_mutex

let record t s =
  let series = t.series in
  let latency = span_latency_us s in
  Probe.incr series.requests_total;
  Probe.incr series.requests_by.(s.s_kind);
  if s.s_error then Probe.incr series.errors_total;
  Probe.observe series.req_latency.(s.s_kind) latency;
  Probe.observe series.lock_wait s.s_lock_us;
  if s.s_kind = step_kind then Probe.observe series.step_time s.s_handle_us;
  Probe.observe series.bytes_in_h s.s_bytes_in;
  Probe.observe series.bytes_out_h s.s_bytes_out;
  if s.s_rounds > 0 then Probe.add series.rounds_total s.s_rounds;
  if s.s_shed > 0 then Probe.add series.shed_jobs_total s.s_shed;
  if latency >= t.slow_threshold_us then begin
    Probe.incr series.slow_total;
    push_slow t
      {
        e_at_us = Int64.to_int (Int64.div (uptime_ns t) 1000L);
        e_kind = kind_name s.s_kind;
        e_session = s.s_session;
        e_wire = s.s_wire;
        e_latency_us = latency;
        e_lock_us = s.s_lock_us;
        e_handle_us = s.s_handle_us;
        e_write_us = s.s_write_us;
        e_bytes_in = s.s_bytes_in;
        e_bytes_out = s.s_bytes_out;
        e_error = s.s_error;
      }
  end

let record_malformed t s =
  Probe.incr t.series.malformed_total;
  s.s_kind <- error_kind;
  s.s_error <- true;
  record t s

(* Newest first, at most [max] entries. *)
let slow_log ?max t =
  Mutex.lock t.slow_mutex;
  let capacity = Array.length t.slow in
  let available = min t.slow_pushed capacity in
  let wanted =
    match max with None -> available | Some m -> min (Stdlib.max m 0) available
  in
  let entries =
    List.init wanted (fun i ->
        t.slow.((t.slow_pushed - 1 - i + (capacity * 2)) mod capacity))
  in
  Mutex.unlock t.slow_mutex;
  List.filter_map Fun.id entries

let slow_to_json e =
  Printf.sprintf
    "{\"at_us\":%d,\"type\":%s,\"session\":%s,\"wire\":%d,\
     \"latency_us\":%d,\"lock_us\":%d,\"handle_us\":%d,\
     \"write_us\":%d,\"bytes_in\":%d,\"bytes_out\":%d,\"error\":%d}"
    e.e_at_us (Json.escape e.e_kind) (Json.escape e.e_session) e.e_wire
    e.e_latency_us e.e_lock_us e.e_handle_us e.e_write_us
    e.e_bytes_in e.e_bytes_out
    (if e.e_error then 1 else 0)

let merged t = Probe.merged [ t.series.registry ]

(* A registry snapshot as one flat JSON object (name -> int), the
   [metrics_ok.doc] payload — parseable by [Json.parse_fields]. Shared
   by the server's and the router's in-band metrics replies. *)
let registry_doc registry =
  let entries = Probe.snapshot registry in
  let buf = Buffer.create 4096 in
  Buffer.add_char buf '{';
  List.iteri
    (fun i (name, value) ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf (Json.escape name);
      Buffer.add_char buf ':';
      Buffer.add_string buf (string_of_int value))
    entries;
  Buffer.add_char buf '}';
  Buffer.contents buf
