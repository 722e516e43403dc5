module Probe = Rrs_obs.Probe
module Clock = Rrs_obs.Clock

(* ---- consistent-hash ring ----

   Classic ring with virtual nodes: every shard label contributes
   [replicas] points hashed onto a 64-bit circle (FNV-1a); a key is
   owned by the first point clockwise from its own hash. Adding or
   removing one of N shards therefore remaps only ~1/N of the keys, and
   every remapped key lands on a surviving shard — the property the
   qcheck suite pins. Ownership is computed over ALL configured shards,
   up or down: a crashed shard keeps its keys (its sessions live in its
   own snapshot directory), and failover is restart + re-admission, not
   remapping. *)
module Ring = struct
  (* FNV-1a 64-bit. Signed Int64 compare is used consistently for both
     sorting and lookup, which is all a ring needs (any fixed total
     order of the circle works). *)
  let fnv_offset = -3750763034362895579L (* 0xcbf29ce484222325 *)
  let fnv_prime = 1099511628211L

  (* murmur3's fmix64 finalizer. Raw FNV-1a has weak avalanche in the
     high bits: keys differing only in their last character end up
     within ~[fnv_prime] of each other — a sliver of the 64-bit circle —
     and would all land on the same shard. The finalizer scatters
     them. *)
  let mix h =
    let h = Int64.logxor h (Int64.shift_right_logical h 33) in
    let h = Int64.mul h (-49064778989728563L) (* 0xff51afd7ed558ccd *) in
    let h = Int64.logxor h (Int64.shift_right_logical h 33) in
    let h = Int64.mul h (-4265267296055464877L) (* 0xc4ceb9fe1a85ec53 *) in
    Int64.logxor h (Int64.shift_right_logical h 33)

  let hash key =
    let h = ref fnv_offset in
    String.iter
      (fun c ->
        h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) fnv_prime)
      key;
    mix !h

  type t = {
    points : (int64 * int) array; (* (point, shard index), sorted *)
    labels : string array;
  }

  let default_replicas = 128

  let make ?(replicas = default_replicas) labels =
    if Array.length labels = 0 then invalid_arg "Ring.make: no shards";
    if replicas < 1 then invalid_arg "Ring.make: replicas < 1";
    let shards = Array.length labels in
    let points =
      Array.init (shards * replicas) (fun i ->
          let shard = i / replicas and replica = i mod replicas in
          (hash (labels.(shard) ^ "#" ^ string_of_int replica), shard))
    in
    Array.sort compare points;
    { points; labels = Array.copy labels }

  let size t = Array.length t.labels
  let labels t = Array.copy t.labels

  (* First point at or clockwise-after the key's hash, wrapping. *)
  let index t key =
    let h = hash key in
    let n = Array.length t.points in
    let lo = ref 0 and hi = ref n in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if fst t.points.(mid) < h then lo := mid + 1 else hi := mid
    done;
    snd t.points.(if !lo = n then 0 else !lo)

  let shard t key = t.labels.(index t key)
end

(* ---- router ---- *)

type shard_spec = { shard_label : string; shard_address : Net.address }

type config = {
  address : Net.address; (* front listener *)
  shards : shard_spec list;
  max_wire : int; (* front framings negotiable; 1 pins /1 *)
  backend_wire : int; (* framing spoken to shards (default 2) *)
  timeout_ms : int; (* per-backend-call deadline *)
  connect_timeout_ms : int; (* backend connect budget *)
  fail_threshold : int; (* consecutive failures before down *)
  probe_interval_ms : int; (* first re-admission probe delay *)
  probe_max_ms : int; (* probe backoff cap *)
  replicas : int; (* ring virtual nodes per shard; 0 = default *)
  router_id : string; (* identity surfaced in hello_ok *)
}

let default_config ~address ~shards =
  {
    address;
    shards;
    max_wire = 2;
    backend_wire = 2;
    timeout_ms = 2_000;
    connect_timeout_ms = 1_000;
    fail_threshold = 3;
    probe_interval_ms = 200;
    probe_max_ms = 5_000;
    replicas = 0;
    router_id = "rrs-router/1.0.0";
  }

type shard = {
  label : string;
  address : Net.address;
  health : Health.t;
  routed : Probe.counter; (* requests forwarded to this shard *)
  errors : Probe.counter; (* backend failures charged to this shard *)
  mutable probing : bool; (* a re-admission probe is in flight *)
}

type t = {
  cfg : config;
  shards : shard array;
  ring : Ring.t;
  metrics : Metrics.t; (* front-side request spans *)
  probes : Probe.registry; (* router counters (routing/health) *)
  shed_down : Probe.counter; (* requests refused: owner shard down *)
  listen_fd : Unix.file_descr;
  cleanup_socket : string option;
  stopping : bool Atomic.t;
  up : int Atomic.t; (* shards Up, for readers off the loop *)
  (* Assigned right after construction (the loop handler needs [t]);
     always Some once [start] returns. *)
  mutable loop : legs Handler.state Event_loop.t option;
  mutable loop_domain : unit Domain.t option;
}

(* This connection's cached shard legs (one per shard, dialled lazily
   and closed by the loop with the connection): the router's part of
   the per-connection handler state. *)
and legs = { by_shard : legs Handler.state Event_loop.leg option array }
[@@unboxed]

let now_ms () = Int64.to_int (Int64.div (Clock.now_ns ()) 1_000_000L)

(* Called after every health change, all of which happen on the loop. *)
let publish_up t =
  Atomic.set t.up
    (Array.fold_left
       (fun up s -> if Health.is_up s.health then up + 1 else up)
       0 t.shards)

let session_of_frame = function
  | Wire.Open { session; _ }
  | Wire.Feed { session; _ }
  | Wire.Step { session; _ }
  | Wire.Stats { session; _ }
  | Wire.Snapshot { session; _ }
  | Wire.Close { session; _ } ->
      Some session
  | _ -> None

(* The router's own metrics view: front-side spans plus routing/health
   gauges — shards_total/up, per-shard failures and re-admissions
   folded into totals. *)
let metrics_registry t =
  let merged = Metrics.merged t.metrics in
  Probe.merge ~into:merged t.probes;
  let failures, trips, readmits =
    Array.fold_left
      (fun (f, tr, re) s ->
        let f', tr', re' = Health.counters s.health in
        (f + f', tr + tr', re + re'))
      (0, 0, 0) t.shards
  in
  let set name value = Probe.set_gauge (Probe.gauge merged name) value in
  set "shards_total" (Array.length t.shards);
  set "shards_up" (Atomic.get t.up);
  set "shard_failures_total" failures;
  set "shard_trips_total" trips;
  set "shard_readmits_total" readmits;
  set "uptime_s" (Metrics.uptime_s t.metrics);
  merged

let handle_metrics t ~slow =
  let doc = Metrics.registry_doc (metrics_registry t) in
  let entries = if slow <= 0 then [] else Metrics.slow_log ~max:slow t.metrics in
  Wire.Metrics_ok
    { doc; slow = String.concat "\n" (List.map Metrics.slow_to_json entries) }

(* Forward one session frame to its owning shard, on the loop. Down
   shards are refused immediately with a clean error — the router never
   blocks a client on a dead backend. Otherwise the frame goes out on
   this connection's leg to the shard (dialled and, for /2, negotiated
   first when there is none), and the leg's callback finishes the
   front frame. Every step (connect, hello, call) has a deadline, so
   the reply always comes back in bounded time. *)
let forward t conn frame session =
  let i = Ring.index t.ring session in
  let shard = t.shards.(i) in
  if not (Health.is_up shard.health) then begin
    Probe.incr t.shed_down;
    Handler.Reply
      (Wire.Error_frame
         {
           message =
             Printf.sprintf "shard %s down (%s); session %S unavailable until \
                             it recovers"
               shard.label
               (match Health.last_error shard.health with
               | "" -> "unreachable"
               | reason -> reason)
               session;
         })
  end
  else begin
    Probe.incr shard.routed;
    let fail reason =
      Probe.incr shard.errors;
      Health.fail shard.health ~now_ms:(now_ms ()) ~reason;
      publish_up t;
      if not (Health.is_up shard.health) then
        Slog.warn ~event:"shard_down"
          [ ("shard", shard.label); ("reason", reason) ];
      Wire.Error_frame
        {
          message =
            Printf.sprintf "shard %s unavailable: %s" shard.label reason;
        }
    in
    let timeout_ms = t.cfg.timeout_ms in
    let send leg =
      Event_loop.call leg frame ~timeout_ms (function
        | Ok reply ->
            Health.ok shard.health;
            publish_up t;
            Handler.finish conn reply
        | Error message -> Handler.finish conn (fail message))
    in
    let legs = (Handler.ext (Event_loop.data conn)).by_shard in
    match legs.(i) with
    | Some leg when not (Event_loop.leg_broken leg) ->
        send leg;
        Handler.Pending
    | _ -> (
        legs.(i) <- None;
        match
          Event_loop.dial conn shard.address
            ~timeout_ms:t.cfg.connect_timeout_ms
        with
        | Error message -> Handler.Reply (fail message)
        | Ok leg when t.cfg.backend_wire = 1 ->
            legs.(i) <- Some leg;
            send leg;
            Handler.Pending
        | Ok leg -> (
            let wire = t.cfg.backend_wire in
            match Client.hello ~wire with
            | Error message ->
                Event_loop.close_leg leg;
                Handler.Reply (fail message)
            | Ok hello ->
                (* The hello shares the call's deadline: a shard that
                   accepts and never answers costs [timeout_ms]. *)
                Event_loop.call leg hello ~timeout_ms (fun reply ->
                    match Client.hello_outcome ~wire reply with
                    | Ok () ->
                        Event_loop.set_leg_framing leg Wire.V2;
                        legs.(i) <- Some leg;
                        send leg
                    | Error message ->
                        Event_loop.close_leg leg;
                        Handler.finish conn (fail message));
                Handler.Pending))
  end

(* The router's [Handler.handle]: [metrics] is answered locally (the
   router's own view), every session frame is forwarded to its owner. *)
let handle t conn frame =
  match frame with
  | Wire.Metrics { slow } -> Handler.Reply (handle_metrics t ~slow)
  | _ -> (
      match session_of_frame frame with
      | Some session -> forward t conn frame session
      | None ->
          Handler.Reply
            (Wire.Error_frame { message = "reply frames are not requests" }))

(* Re-admission probe, on a leg of the loop's own: a connect and a /1
   hello, together within [connect_timeout_ms]. Success re-admits the
   shard (the supervisor restarted it and restore-at-boot brought its
   sessions back); failure pushes the next probe out on the backoff
   schedule. *)
let probe t loop shard =
  let budget = t.cfg.connect_timeout_ms in
  let failed reason =
    Health.probe_failed shard.health ~now_ms:(now_ms ()) ~reason
  in
  match Event_loop.dial_own loop shard.address ~timeout_ms:budget with
  | Error message -> failed message
  | Ok leg ->
      shard.probing <- true;
      Event_loop.call leg
        (Wire.Hello { client_version = Wire.version })
        ~timeout_ms:budget
        (fun reply ->
          shard.probing <- false;
          Event_loop.close_leg leg;
          match Client.hello_outcome ~wire:1 reply with
          | Ok () ->
              Health.ok shard.health;
              publish_up t;
              Slog.info ~event:"shard_readmitted" [ ("shard", shard.label) ]
          | Error message -> failed message)

(* The loop's timer: start every probe that is due; wake for the next.
   A probe in flight wakes the loop through its leg's deadline, and
   with every shard up there is nothing to wait for. *)
let probe_timer t loop =
  if Atomic.get t.up = Array.length t.shards then max_int
  else
    let now = now_ms () in
    Array.fold_left
      (fun wait shard ->
        if (not shard.probing) && Health.probe_due shard.health ~now_ms:now
        then probe t loop shard;
        match Health.next_probe_ms shard.health with
        | Some at when not shard.probing -> min wait (at - now)
        | _ -> wait)
      max_int t.shards

let shards_up t = Atomic.get t.up

let shard_of_session t session = (Ring.shard t.ring) session

let start (config : config) =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  if config.shards = [] then failwith "router: no shards configured";
  if config.timeout_ms < 1 then failwith "router: timeout_ms must be >= 1";
  let labels = Array.of_list (List.map (fun s -> s.shard_label) config.shards) in
  let distinct = List.sort_uniq String.compare (Array.to_list labels) in
  if List.length distinct <> Array.length labels then
    failwith "router: duplicate shard labels";
  let probes = Probe.create_registry () in
  let shards =
    Array.of_list
      (List.map
         (fun spec ->
           {
             label = spec.shard_label;
             address = spec.shard_address;
             health =
               Health.create ~fail_threshold:config.fail_threshold
                 ~probe_interval_ms:config.probe_interval_ms
                 ~probe_max_ms:config.probe_max_ms ();
             routed = Probe.counter probes ("routed_" ^ spec.shard_label);
             errors = Probe.counter probes ("errors_" ^ spec.shard_label);
             probing = false;
           })
         config.shards)
  in
  let ring =
    Ring.make
      ?replicas:(if config.replicas > 0 then Some config.replicas else None)
      labels
  in
  let listen_fd, cleanup_socket = Net.listen_socket config.address in
  let stopping = Atomic.make false in
  let metrics = Metrics.create () in
  let shed_down = Probe.counter probes "routed_shard_down_total" in
  let t =
    {
      cfg = config;
      shards;
      ring;
      metrics;
      probes;
      shed_down;
      listen_fd;
      cleanup_socket;
      stopping;
      up = Atomic.make (Array.length shards);
      loop = None;
      loop_domain = None;
    }
  in
  let handler =
    {
      Handler.role = "router";
      id = config.router_id;
      max_wire = config.max_wire;
      max_reply = Wire.max_frame;
      metrics;
      handle = handle t;
    }
  in
  let loop =
    Event_loop.create ~listen_fd ~timer:(probe_timer t) ~stopping
      ~on_open:(fun () ->
        Handler.state handler
          { by_shard = Array.make (Array.length shards) None })
      ~handler:Handler.handle_event ()
  in
  t.loop <- Some loop;
  t.loop_domain <- Some (Domain.spawn (fun () -> Event_loop.run loop));
  Slog.info ~event:"routing"
    [
      ("address", Net.address_label config.address);
      ("shards", Slog.int (Array.length shards));
    ];
  t

let bound_port t = Net.port_of t.listen_fd

let stop t =
  Atomic.set t.stopping true;
  (* The event loop owns the listen fd and every connection fd: waking
     it closes the listener and any probe in flight, finishes frames in
     flight (a leg within its deadline), flushes replies and closes all
     connections, shard legs included, before [run] returns. *)
  Option.iter Event_loop.wake_loop t.loop;
  Option.iter Domain.join t.loop_domain;
  Option.iter
    (fun path -> try Sys.remove path with Sys_error _ -> ())
    t.cleanup_socket

let serve config =
  let stop_requested = Atomic.make false in
  let request_stop _signal = Atomic.set stop_requested true in
  let previous_term = Sys.signal Sys.sigterm (Sys.Signal_handle request_stop) in
  let previous_int = Sys.signal Sys.sigint (Sys.Signal_handle request_stop) in
  let t = start config in
  while not (Atomic.get stop_requested) do
    Unix.sleepf 0.1
  done;
  Slog.info ~event:"stopping" [ ("reason", "signal") ];
  stop t;
  Sys.set_signal Sys.sigterm previous_term;
  Sys.set_signal Sys.sigint previous_int
