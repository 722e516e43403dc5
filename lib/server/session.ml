module Stepper = Rrs_sim.Stepper
module Probe = Rrs_obs.Probe
module Json = Rrs_sim.Event_sink.Json

let snapshot_schema = "rrs-sess/1"
let default_queue_limit = 4096
let default_checkpoint_every = 256

type t = {
  name : string;
  policy_key : string;
  queue_limit : int;
  mutex : Mutex.t;
  stepper : Stepper.t;
  probes : Probe.registry;
  shed_jobs : Probe.counter;
  mutable shed : int;
  mutable fed : int; (* jobs offered = accepted + shed *)
  mutable declared : Wire.decl option;
      (* admitted arrival envelope (rates/den/bursts), when the client
         declared one *)
  mutable police : bool;
      (* enforce the envelope in [feed] (the server's admission mode is
         enforce and a declaration is in force) *)
  mutable admitted_by_color : int array;
      (* jobs accepted per color since round 0, the envelope cursor;
         [||] until declared *)
  mutable policed : int; (* jobs refused by the envelope (subset of shed) *)
  mutable trace : out_channel option;
      (* owned: closed with the session, then [None] so a lost
         close/release race never double-closes the channel *)
  mutable saved_epoch : int;
      (* checkpoint epoch (round / checkpoint_every) already on disk;
         [autosave] writes once per epoch so a kill -9 loses at most
         one unsnapshotted window *)
}

(* [on_lock_wait_us], when given, observes the time this caller spent
   blocked on the session mutex (µs) — the serving layer's lock_wait_us
   series. The no-callback path stays a bare lock. *)
let locked ?on_lock_wait_us t f =
  (match on_lock_wait_us with
  | None -> Mutex.lock t.mutex
  | Some record ->
      let started = Rrs_obs.Clock.now_ns () in
      Mutex.lock t.mutex;
      let waited = Int64.sub (Rrs_obs.Clock.now_ns ()) started in
      record (Int64.to_int (Int64.div waited 1000L)));
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let resolve_policy key =
  match Rrs_core.Policies.find key with
  | Some policy -> Ok policy
  | None ->
      Error
        (Printf.sprintf "unknown policy %S (known: %s)" key
           (String.concat ", " Rrs_core.Policies.names))

let negative_interval k =
  Error (Printf.sprintf "negative checkpoint interval %d" k)

let make ~name ~policy_key ~queue_limit ~trace stepper probes =
  {
    name;
    policy_key;
    queue_limit;
    mutex = Mutex.create ();
    stepper;
    probes;
    shed_jobs = Probe.counter probes "shed_jobs";
    shed = 0;
    fed = 0;
    declared = None;
    police = false;
    admitted_by_color = [||];
    policed = 0;
    trace;
    saved_epoch =
      (* A fresh session (round 0) starts one epoch behind so the very
         first step autosaves it; without that, a crash before round
         [checkpoint_every] would lose the session entirely, not just
         its last window. Restored sessions start at their own epoch so
         restore->step doesn't rewrite an identical snapshot. *)
      (let k = Stepper.checkpoint_every stepper in
       if k <= 0 then 0
       else if Stepper.round stepper = 0 then -1
       else Stepper.round stepper / k);
  }

let open_trace trace_dir name =
  match trace_dir with
  | None -> (None, None)
  | Some dir ->
      let path = Filename.concat dir (name ^ ".events.jsonl") in
      let channel = open_out path in
      (Some channel, Some (Rrs_sim.Event_sink.Jsonl channel))

let create ~name ~policy:policy_key ?(queue_limit = 0)
    ?(checkpoint_every = default_checkpoint_every) ?trace_dir
    (config : Stepper.config) =
  let queue_limit =
    if queue_limit > 0 then queue_limit else default_queue_limit
  in
  if checkpoint_every < 0 then negative_interval checkpoint_every
  else
    match resolve_policy policy_key with
    | Error _ as e -> e
    | Ok policy -> (
        let trace, sink = open_trace trace_dir name in
        let probes = Probe.create_registry () in
        match
          Stepper.create ?sink ~probes ~checkpoint_every
            ~label:("session " ^ name) ~policy config
        with
        | stepper ->
            Ok (make ~name ~policy_key ~queue_limit ~trace stepper probes)
        | exception Invalid_argument message ->
            Option.iter close_out trace;
            Error message)

let name t = t.name
let policy_key t = t.policy_key
let queue_limit t = t.queue_limit
let checkpoint_every t = Stepper.checkpoint_every t.stepper
let num_colors t = Array.length (Stepper.config t.stepper).Stepper.bounds
let config t = Stepper.config t.stepper

(* Install (or replace) the admitted arrival envelope. The caller
   (server) validates the declaration's shape against the session's
   color count first. The envelope cursor survives re-declarations: the
   new rates apply to the cumulative history, not from a reset. *)
let declare ?on_lock_wait_us t ~decl ~police =
  locked ?on_lock_wait_us t (fun () ->
      t.declared <- Some decl;
      t.police <- police;
      if Array.length t.admitted_by_color <> num_colors t then
        t.admitted_by_color <- Array.make (num_colors t) 0)

let declaration t = locked t (fun () -> t.declared)
let policed t = locked t (fun () -> t.policed)

type feed_result =
  | Accepted of { accepted : int; buffered : int }
  | Shed_reply of { shed : int; buffered : int; limit : int }
  | Policed of { color : int; offered : int; allowance : int }

let validate_request t request =
  let num_colors = Array.length (Stepper.config t.stepper).Stepper.bounds in
  List.fold_left
    (fun acc (color, count) ->
      match acc with
      | Error _ -> acc
      | Ok () ->
          if color < 0 || color >= num_colors then
            Error
              (Printf.sprintf "feed: unknown color %d (valid: 0..%d)" color
                 (num_colors - 1))
          else if count < 0 then
            Error (Printf.sprintf "feed: color %d has negative count %d" color count)
          else Ok ())
    (Ok ()) request

(* Envelope check (enforce mode with a declaration in force): each
   color's cumulative accepted jobs plus this request must stay within
   [burst + floor ((round + 1) * rate / den)] — exactly the cumulative
   arrivals a spec-conformant generator ({!Rrs_workload.Demand}) has
   produced through the current round, so honest traffic is never
   policed. First violating color wins (colors are sorted in a
   normalized request; the raw order is the caller's). *)
let envelope_violation t request =
  match t.declared with
  | Some { Wire.d_rates; d_den; d_bursts } when t.police ->
      let round = Stepper.round t.stepper in
      let request = Rrs_sim.Types.normalize_request request in
      List.fold_left
        (fun acc (color, count) ->
          match acc with
          | Some _ -> acc
          | None ->
              let burst =
                if Array.length d_bursts = 0 then 0 else d_bursts.(color)
              in
              let allowance = burst + ((round + 1) * d_rates.(color) / d_den) in
              let offered = t.admitted_by_color.(color) + count in
              if offered > allowance then Some (color, offered, allowance)
              else None)
        None request
  | _ -> None

let feed ?on_lock_wait_us t ~colors ~counts =
  if Array.length colors <> Array.length counts then
    Error "feed: colors and counts differ in length"
  else
    let request =
      Array.to_list (Array.map2 (fun c k -> (c, k)) colors counts)
    in
    let jobs = Rrs_sim.Types.request_size request in
    locked ?on_lock_wait_us t (fun () ->
        (* Validate before admission: an invalid request is rejected
           outright and never counts as fed or shed. *)
        match validate_request t request with
        | Error _ as e -> e
        | Ok () -> (
            match envelope_violation t request with
            | Some (color, offered, allowance) ->
                (* Over the admitted envelope: refused whole, like a
                   queue-limit shed (fed/shed keep their conservation
                   law), but answered with the typed admission error. *)
                t.fed <- t.fed + jobs;
                t.shed <- t.shed + jobs;
                t.policed <- t.policed + jobs;
                Probe.add t.shed_jobs jobs;
                Ok (Policed { color; offered; allowance })
            | None -> (
                let buffered = Stepper.buffered_jobs t.stepper in
                t.fed <- t.fed + jobs;
                if buffered + jobs > t.queue_limit then begin
                  (* All-or-nothing shed: a partially admitted request
                     would make the stream depend on admission timing. *)
                  t.shed <- t.shed + jobs;
                  Probe.add t.shed_jobs jobs;
                  Ok
                    (Shed_reply
                       { shed = jobs; buffered; limit = t.queue_limit })
                end
                else
                  match Stepper.feed t.stepper request with
                  | () ->
                      if Array.length t.admitted_by_color > 0 then
                        List.iter
                          (fun (color, count) ->
                            t.admitted_by_color.(color) <-
                              t.admitted_by_color.(color) + count)
                          request;
                      Ok
                        (Accepted
                           { accepted = jobs; buffered = buffered + jobs })
                  | exception Invalid_argument message ->
                      t.fed <- t.fed - jobs;
                      Error message)))

type step_result = {
  sr_round : int;
  sr_pending : int;
  sr_cost : int;
  sr_reconfigs : int;
  sr_drops : int;
  sr_execs : int;
}

let step_summary t =
  let ledger = Stepper.ledger t.stepper in
  {
    sr_round = Stepper.round t.stepper;
    sr_pending = Stepper.pool_pending t.stepper;
    sr_cost = Rrs_sim.Ledger.total_cost ledger;
    sr_reconfigs = Rrs_sim.Ledger.reconfig_count ledger;
    sr_drops = Rrs_sim.Ledger.drop_count ledger;
    sr_execs = Rrs_sim.Ledger.exec_count ledger;
  }

let step ?on_lock_wait_us t ~rounds =
  if rounds < 1 then Error "step: rounds must be >= 1"
  else
    locked ?on_lock_wait_us t (fun () ->
        match
          for _ = 1 to rounds do
            Stepper.step t.stepper
          done
        with
        | () -> Ok (step_summary t)
        | exception Invalid_argument message -> Error message)

type stats = {
  st_round : int;
  st_pending : int;
  st_buffered : int;
  st_fed : int;
  st_accepted : int;
  st_shed : int;
  st_execs : int;
  st_drops : int;
  st_reconfigs : int;
  st_failed : int;
  st_cost : int;
}

let stats ?on_lock_wait_us t =
  locked ?on_lock_wait_us t (fun () ->
      let ledger = Stepper.ledger t.stepper in
      {
        st_round = Stepper.round t.stepper;
        st_pending = Stepper.pool_pending t.stepper;
        st_buffered = Stepper.buffered_jobs t.stepper;
        st_fed = t.fed;
        st_accepted = Stepper.accepted_jobs t.stepper;
        st_shed = t.shed;
        st_execs = Rrs_sim.Ledger.exec_count ledger;
        st_drops = Rrs_sim.Ledger.drop_count ledger;
        st_reconfigs = Rrs_sim.Ledger.reconfig_count ledger;
        st_failed = Rrs_sim.Ledger.failed_reconfig_count ledger;
        st_cost = Rrs_sim.Ledger.total_cost ledger;
      })

(* ---- snapshot: one rrs-sess/1 header line + the embedded rrs-snap/2
   stepper document. The header declares the body's version
   ([snap_version], always 2 when written; absent = 1 in pre-/2 files,
   which embed rrs-snap/1) so a restore can detect a spliced or
   truncated-and-recombined document before replaying it. ---- *)

let ints_literal a = Json.ints (Array.to_list a)

let header_line t =
  (* The declaration group is optional and appended, so pre-admission
     files (and undeclared sessions) keep the historical header
     byte-for-byte; [restore] treats the fields as absent = undeclared. *)
  let decl_suffix =
    match t.declared with
    | None -> ""
    | Some { Wire.d_rates; d_den; d_bursts } ->
        Printf.sprintf
          ",\"rates\":%s,\"rate_den\":%d,\"bursts\":%s,\"admitted\":%s,\
           \"policed\":%d"
          (ints_literal d_rates) d_den (ints_literal d_bursts)
          (ints_literal t.admitted_by_color)
          t.policed
  in
  Printf.sprintf
    "{\"schema\":%s,\"session\":%s,\"policy\":%s,\"queue_limit\":%d,\
     \"fed\":%d,\"shed\":%d,\"snap_version\":2%s}"
    (Json.escape snapshot_schema) (Json.escape t.name)
    (Json.escape t.policy_key) t.queue_limit t.fed t.shed decl_suffix

let document t = header_line t ^ "\n" ^ Stepper.snapshot t.stepper

let snapshot ?on_lock_wait_us t =
  locked ?on_lock_wait_us t (fun () -> document t)

let save ?on_lock_wait_us t ~path =
  Rrs_sim.Atomic_file.write ~path (snapshot ?on_lock_wait_us t)

(* Checkpoint-boundary autosave: write the snapshot to [path] once per
   checkpoint epoch (round / checkpoint_every), so a crashed process
   (kill -9, no drain) loses at most the current unsnapshotted window.
   The document is built under the session lock; file I/O runs outside
   it. Returns true when a document was written. No-op for sessions
   without checkpoints ([checkpoint_every = 0]). *)
let autosave ?on_lock_wait_us t ~path =
  let doc =
    locked ?on_lock_wait_us t (fun () ->
        let k = Stepper.checkpoint_every t.stepper in
        if k <= 0 then None
        else
          let epoch = Stepper.round t.stepper / k in
          if epoch = t.saved_epoch then None
          else begin
            t.saved_epoch <- epoch;
            Some (document t)
          end)
  in
  match doc with
  | None -> false
  | Some doc -> (
      match Rrs_sim.Atomic_file.write ~path doc with
      | () -> true
      | exception e ->
          (* Retry at the next boundary instead of skipping the epoch. *)
          locked t (fun () -> t.saved_epoch <- -1);
          raise e)

let close_trace t =
  Option.iter close_out t.trace;
  t.trace <- None

let close ?on_lock_wait_us t =
  locked ?on_lock_wait_us t (fun () ->
      match Stepper.finish t.stepper with
      | result ->
          close_trace t;
          Ok (Rrs_sim.Ledger.total_cost result.Stepper.ledger)
      | exception Invalid_argument message ->
          close_trace t;
          Error message)

(* Release resources without writing a summary (connectionless teardown,
   e.g. server stop without drain). *)
let release t =
  locked t (fun () ->
      if not (Stepper.finished t.stepper) then
        Stepper.abort t.stepper ~reason:"session released";
      close_trace t)

(* The schema string the embedded stepper document actually carries (its
   first line), when one is readable — the version cross-check below;
   unreadable bodies fall through to [Stepper.restore] for a precise
   parse error. *)
let body_schema rest =
  let first =
    match String.index_opt rest '\n' with
    | None -> rest
    | Some i -> String.sub rest 0 i
  in
  match Json.str_field (Json.parse_fields first) "schema" with
  | schema -> Some schema
  | exception Json.Parse_error _ -> None

let restore ?trace_dir ?checkpoint_every text =
  match String.index_opt text '\n' with
  | None -> Error "session snapshot: missing stepper document"
  | Some newline -> (
      let header = String.sub text 0 newline in
      let rest =
        String.sub text (newline + 1) (String.length text - newline - 1)
      in
      match Json.parse_fields header with
      | exception Json.Parse_error message ->
          Error ("session snapshot header: " ^ message)
      | fields -> (
          try
            let schema = Json.str_field fields "schema" in
            if schema <> snapshot_schema then
              Error (Printf.sprintf "unsupported session schema %S" schema)
            else
              let name = Json.str_field fields "session" in
              let policy_key = Json.str_field fields "policy" in
              let queue_limit = Json.int_field fields "queue_limit" in
              let fed = Json.int_field fields "fed" in
              let shed = Json.int_field fields "shed" in
              let opt_ints key =
                match List.assoc_opt key fields with
                | None -> [||]
                | Some (Json.Vints values) -> values
                | Some _ ->
                    raise
                      (Json.Parse_error
                         (Printf.sprintf "field %S: expected int array" key))
              in
              (* Declaration group: absent in pre-admission files. The
                 police flag is the server's to set (it depends on the
                 admission mode of the process doing the restore). *)
              let decl_group, admitted, policed =
                match List.assoc_opt "rate_den" fields with
                | None -> (None, [||], 0)
                | Some (Json.Vint d_den) ->
                    ( Some
                        {
                          Wire.d_rates = opt_ints "rates";
                          d_den;
                          d_bursts = opt_ints "bursts";
                        },
                      opt_ints "admitted",
                      Json.opt_int_field fields "policed" ~default:0 )
                | Some _ ->
                    raise (Json.Parse_error "field \"rate_den\": expected int")
              in
              (* Absent in pre-/2 files, which always embedded /1. *)
              let declared = Json.opt_int_field fields "snap_version" ~default:1 in
              if declared <> 1 && declared <> 2 then
                Error
                  (Printf.sprintf
                     "session snapshot declares unsupported snap_version %d"
                     declared)
              else
                match body_schema rest with
                | Some schema
                  when (declared = 2) <> (schema = Stepper.snapshot_schema) ->
                    Error
                      (Printf.sprintf
                         "session snapshot declares snap_version %d but \
                          embeds a %S stepper document: spliced or corrupt \
                          snapshot"
                         declared schema)
                | _ -> (
                    (* A /1 document upgrades: it gets the default
                       interval, and its next snapshot is /2. *)
                    let checkpoint_override =
                      match checkpoint_every with
                      | Some _ as k -> k
                      | None when declared = 1 -> Some default_checkpoint_every
                      | None -> None
                    in
                    match checkpoint_override with
                    | Some k when k < 0 -> negative_interval k
                    | _ -> (
                        match resolve_policy policy_key with
                        | Error _ as e -> e
                        | Ok policy -> (
                            let trace, sink = open_trace trace_dir name in
                            let probes = Probe.create_registry () in
                            match
                              Stepper.restore ?sink ~probes
                                ?checkpoint_every:checkpoint_override
                                ~label:("session " ^ name) ~policy rest
                            with
                            | Ok stepper ->
                                let t =
                                  make ~name ~policy_key ~queue_limit ~trace
                                    stepper probes
                                in
                                t.fed <- fed;
                                t.shed <- shed;
                                t.declared <- decl_group;
                                t.policed <- policed;
                                (if decl_group <> None then
                                   let colors =
                                     Array.length
                                       (Stepper.config stepper).Stepper.bounds
                                   in
                                   t.admitted_by_color <-
                                     (if Array.length admitted = colors then
                                        admitted
                                      else Array.make colors 0));
                                Probe.add t.shed_jobs shed;
                                Ok t
                            | Error _ as e ->
                                Option.iter close_out trace;
                                e)))
          with Json.Parse_error message ->
            Error ("session snapshot header: " ^ message)))

let load ?trace_dir ?checkpoint_every ~path () =
  match In_channel.with_open_bin path In_channel.input_all with
  | text -> restore ?trace_dir ?checkpoint_every text
  | exception Sys_error message -> Error message
