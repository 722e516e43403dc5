(* Per-shard health state machine.

   A shard starts [Up]. Consecutive failures (connect errors, call
   deadlines) trip it to [Down] once they reach [fail_threshold]; a
   single success resets the streak and (re)admits the shard. While
   down, probes are due on an exponential backoff schedule
   ([probe_interval_ms] doubling up to [probe_max_ms]) so a dead shard
   is not hammered but a restarted one is noticed quickly.

   All timing flows through explicit [now_ms] arguments, so tests drive
   the machine with a synthetic clock. The router's event loop owns
   every shard's machine (requests, probes and the metrics view all run
   there), so it has no lock. *)

type state = Up | Down

type t = {
  fail_threshold : int;
  probe_interval_ms : int;
  probe_max_ms : int;
  mutable state : state;
  mutable consecutive_failures : int;
  mutable next_probe_ms : int; (* absolute, valid while Down *)
  mutable probe_backoff_ms : int; (* current gap between probes *)
  mutable last_error : string;
  mutable failures_total : int;
  mutable trips_total : int;
  mutable readmits_total : int;
}

let create ?(fail_threshold = 3) ?(probe_interval_ms = 200)
    ?(probe_max_ms = 5_000) () =
  if fail_threshold < 1 then invalid_arg "Health.create: fail_threshold < 1";
  if probe_interval_ms < 1 then
    invalid_arg "Health.create: probe_interval_ms < 1";
  {
    fail_threshold;
    probe_interval_ms;
    probe_max_ms = max probe_max_ms probe_interval_ms;
    state = Up;
    consecutive_failures = 0;
    next_probe_ms = 0;
    probe_backoff_ms = probe_interval_ms;
    last_error = "";
    failures_total = 0;
    trips_total = 0;
    readmits_total = 0;
  }

let state t = t.state
let is_up t = t.state = Up
let last_error t = t.last_error
let counters t = (t.failures_total, t.trips_total, t.readmits_total)

let ok t =
  t.consecutive_failures <- 0;
  if t.state = Down then begin
    t.state <- Up;
    t.readmits_total <- t.readmits_total + 1;
    t.probe_backoff_ms <- t.probe_interval_ms
  end

let fail t ~now_ms ~reason =
  t.failures_total <- t.failures_total + 1;
  t.last_error <- reason;
  t.consecutive_failures <- t.consecutive_failures + 1;
  if t.state = Up && t.consecutive_failures >= t.fail_threshold then begin
    t.state <- Down;
    t.trips_total <- t.trips_total + 1;
    t.probe_backoff_ms <- t.probe_interval_ms;
    t.next_probe_ms <- now_ms + t.probe_interval_ms
  end

(* While down, a failure reported from a probe pushes the next probe
   out on the backoff schedule. [fail] alone leaves [next_probe_ms]
   untouched so concurrent request failures cannot starve probing. *)
let probe_failed t ~now_ms ~reason =
  t.failures_total <- t.failures_total + 1;
  t.last_error <- reason;
  if t.state = Down then begin
    t.probe_backoff_ms <- min (t.probe_backoff_ms * 2) t.probe_max_ms;
    t.next_probe_ms <- now_ms + t.probe_backoff_ms
  end

let next_probe_ms t = if t.state = Down then Some t.next_probe_ms else None
let probe_due t ~now_ms = t.state = Down && now_ms >= t.next_probe_ms
