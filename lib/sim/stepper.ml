module Profile = Rrs_obs.Profile
module Json = Event_sink.Json

let phase_names = [ "drop"; "arrival"; "reconfig"; "execute" ]

let snapshot_schema = "rrs-snap/2"

type config = {
  name : string;
  delta : int;
  bounds : int array;
  n : int;
  speed : int;
  horizon : int;
}

type result = {
  ledger : Ledger.t;
  stats : (string * int) list;
  final_assignment : Types.color option array;
  profile : Profile.t option;
}

(* A policy instantiated over its (existential) state, so the stepper can
   hold any policy without exposing the state type. *)
type policy_instance = {
  p_name : string;
  p_on_drop : round:int -> dropped:(Types.color * int) list -> unit;
  p_on_arrival : round:int -> request:Types.request -> unit;
  p_reconfigure : Policy.view -> Types.color option array;
  p_stats : unit -> (string * int) list;
  p_serialize : unit -> string;
  p_deserialize : string -> unit;
}

let instantiate (module P : Policy.POLICY) ~n ~delta ~bounds =
  let state = P.create ~n ~delta ~bounds in
  {
    p_name = P.name;
    p_on_drop = (fun ~round ~dropped -> P.on_drop state ~round ~dropped);
    p_on_arrival = (fun ~round ~request -> P.on_arrival state ~round ~request);
    p_reconfigure = (fun view -> P.reconfigure state view);
    p_stats = (fun () -> P.stats state);
    p_serialize = (fun () -> P.serialize state);
    p_deserialize = (fun blob -> P.deserialize state blob);
  }

(* The scheduler state between rounds, as the paper's model has it:
   each color's pending deadline multiset, each location's color, the
   offline set and the ledger counters. Its size is bounded by the
   instance (colors x distinct deadlines, locations), never by the
   rounds served. A checkpoint's base and a snapshot's cross-check are
   both this record, built by [state_of], written by [state_lines],
   read by [state_of_lines] and compared by [verify]. *)
type state = {
  pending : (int * (int * int) list) list;
      (* nonidle color -> deadline multiset, colors ascending *)
  assignment : int array; (* -1 = unconfigured *)
  offline : int list; (* ascending *)
  reconfigs : int;
  failed : int;
  drops : int;
  execs : int;
}

(* A checkpoint, the [rrs-snap/2] replay base: everything a fresh
   stepper needs to stand at [ck_round] as if it had replayed rounds
   [0..ck_round-1]. *)
type checkpoint = {
  ck_round : int;
  ck_accepted : int;
  ck_state : state;
  ck_policy : string; (* the policy's [serialize] blob *)
}

type t = {
  config : config;
  label : string;
  policy : (module Policy.POLICY); (* kept so [snapshot] can name it *)
  pi : policy_instance;
  pool : Job_pool.t;
  ledger : Ledger.t;
  sink : Event_sink.t;
  prof : Profile.t;
  profile : bool;
  fault_plan : Fault.plan option; (* original plan, embedded in snapshots *)
  faults : Fault.compiled option;
  assignment : Types.color option array;
  offline : bool array;
  checkpoint_every : int; (* 0 = never checkpoint (full-history replay) *)
  mutable base : checkpoint option; (* latest checkpoint, if any *)
  mutable round : int; (* the round the next [step] executes *)
  mutable first_chunk : Types.request; (* the round's first fed chunk *)
  mutable buffered : Types.request list; (* later fed chunks, newest first *)
  mutable buffered_jobs : int;
  mutable accepted_jobs : int; (* total jobs accepted by [feed] *)
  mutable history : (int * Types.request) list;
      (* Consumed arrivals since the latest checkpoint (all of them when
         [checkpoint_every = 0]), newest first: the delta section of the
         deterministic-replay base for [snapshot]/[restore]. With
         checkpointing on, [step] truncates this at every checkpoint, so
         its length — and with it snapshot size and restore replay time —
         is O(checkpoint_every), not O(total arrivals). *)
  mutable finished : bool;
}

let create ?(record_events = true) ?sink ?(profile = false) ?faults
    ?(checkpoint_every = 0) ?(label = "Stepper")
    ~policy:(module P : Policy.POLICY) config =
  if checkpoint_every < 0 then
    invalid_arg (label ^ ": negative checkpoint_every");
  if config.n < 1 then invalid_arg (label ^ ": n must be >= 1");
  if config.speed < 1 then invalid_arg (label ^ ": speed must be >= 1");
  if config.delta < 1 then invalid_arg (label ^ ": delta must be >= 1");
  if Array.length config.bounds = 0 then invalid_arg (label ^ ": no colors");
  Array.iteri
    (fun c d ->
      if d < 1 then
        invalid_arg
          (Printf.sprintf "%s: bound of color %d is %d" label c d))
    config.bounds;
  if config.horizon < 0 then invalid_arg (label ^ ": negative horizon");
  let num_colors = Array.length config.bounds in
  let faults_compiled =
    match faults with
    | Some plan when not (Fault.is_empty plan) ->
        Some (Fault.compile plan ~n:config.n ~horizon:config.horizon)
    | Some _ | None -> None
  in
  let pool = Job_pool.create ~num_colors in
  let ledger = Ledger.create ~record_events ?sink ~delta:config.delta () in
  let sink = Ledger.sink ledger in
  Event_sink.write_header sink ~name:config.name ~delta:config.delta
    ~n:config.n ~speed:config.speed ~horizon:config.horizon
    ~bounds:config.bounds;
  let prof = Profile.create phase_names in
  let pi = instantiate (module P) ~n:config.n ~delta:config.delta
      ~bounds:config.bounds in
  {
    config;
    label;
    policy = (module P);
    pi;
    pool;
    ledger;
    sink;
    prof;
    profile;
    fault_plan = faults;
    faults = faults_compiled;
    assignment = Array.make config.n None;
    offline = Array.make config.n false;
    checkpoint_every;
    base = None;
    round = 0;
    first_chunk = [];
    buffered = [];
    buffered_jobs = 0;
    accepted_jobs = 0;
    history = [];
    finished = false;
  }

let round t = t.round
let ledger t = t.ledger
let pool_pending t = Job_pool.total_pending t.pool
let buffered_jobs t = t.buffered_jobs
let accepted_jobs t = t.accepted_jobs
let policy_name t = t.pi.p_name
let config t = t.config
let finished t = t.finished
let assignment t = Array.copy t.assignment
let checkpoint_every t = t.checkpoint_every
let base_round t = match t.base with None -> 0 | Some ck -> ck.ck_round
let history_rounds t = List.length t.history

let rec count_jobs t ~num_colors acc = function
  | [] -> acc
  | (color, count) :: rest ->
      if color < 0 || color >= num_colors then
        invalid_arg
          (Printf.sprintf "%s: feed of unknown color %d (valid: 0..%d)"
             t.label color (num_colors - 1));
      if count < 0 then
        invalid_arg
          (Printf.sprintf "%s: feed of color %d with negative count %d"
             t.label color count);
      count_jobs t ~num_colors (acc + count) rest

let feed t request =
  if t.finished then invalid_arg (t.label ^ ": feed after finish");
  let jobs =
    count_jobs t ~num_colors:(Array.length t.config.bounds) 0 request
  in
  (* The first chunk of a round is held as is; later chunks are
     prepended (constant-time), so repeated feeds within one round stay
     linear; [buffered_request] restores fed order. *)
  (match (request, t.first_chunk) with
  | [], _ -> ()
  | _, [] -> t.first_chunk <- request
  | _, _ :: _ -> t.buffered <- request :: t.buffered);
  t.buffered_jobs <- t.buffered_jobs + jobs;
  t.accepted_jobs <- t.accepted_jobs + jobs

(* The fed-but-unconsumed arrivals, flattened in fed order. The common
   single-feed round returns the chunk itself, no copy. *)
let buffered_request t =
  match t.buffered with
  | [] -> t.first_chunk
  | chunks -> List.concat (t.first_chunk :: List.rev chunks)

let idle_mark = { Profile.mark_s = 0.0; mark_minor = 0.0 }
let mark t = if t.profile then Profile.start () else idle_mark
let tick t index m = if t.profile then Profile.stop t.prof index m

let rec record_drops ledger ~round = function
  | [] -> ()
  | (color, count) :: rest ->
      Ledger.record_drop ledger ~round ~color ~count;
      record_drops ledger ~round rest

let rec add_arrivals pool ~bounds ~round = function
  | [] -> ()
  | (color, count) :: rest ->
      Job_pool.add pool ~color ~deadline:(round + bounds.(color)) ~count;
      add_arrivals pool ~bounds ~round rest

let pp_dropped =
  Format.pp_print_list
    ~pp_sep:(fun ppf () -> Format.fprintf ppf " ")
    (fun ppf (c, k) -> Format.fprintf ppf "%d:%d" c k)

let state_of t =
  let pending = ref [] in
  for color = Array.length t.config.bounds - 1 downto 0 do
    match Job_pool.deadlines t.pool color with
    | [] -> ()
    | deadlines -> pending := (color, deadlines) :: !pending
  done;
  let offline = ref [] in
  for location = t.config.n - 1 downto 0 do
    if t.offline.(location) then offline := location :: !offline
  done;
  {
    pending = !pending;
    assignment = Array.map (function None -> -1 | Some c -> c) t.assignment;
    offline = !offline;
    reconfigs = Ledger.reconfig_count t.ledger;
    failed = Ledger.failed_reconfig_count t.ledger;
    drops = Ledger.drop_count t.ledger;
    execs = Ledger.exec_count t.ledger;
  }

(* Materialize the current state as the new replay base and drop the
   arrival history it supersedes. Called between rounds (the fed buffer
   has been consumed), so the checkpoint is exactly "the state at the
   start of round [t.round]". *)
let take_checkpoint t =
  t.base <-
    Some
      {
        ck_round = t.round;
        ck_accepted = t.accepted_jobs;
        ck_state = state_of t;
        ck_policy = t.pi.p_serialize ();
      };
  t.history <- []

let step t =
  if t.finished then invalid_arg (t.label ^ ": step after finish");
  let { delta; bounds; n; speed; _ } = t.config in
  let num_colors = Array.length bounds in
  let pool = t.pool and ledger = t.ledger and sink = t.sink in
  let assignment = t.assignment and offline = t.offline in
  let round = t.round in
  let reconfigs0 = Ledger.reconfig_count ledger in
  let drops0 = Ledger.drop_count ledger in
  let execs0 = Ledger.exec_count ledger in
  (* Fault transitions, before the drop phase: repairs first, then
     crashes (a merged plan never has both for one location in one
     round). A crashed location loses its color. *)
  (match t.faults with
  | None -> ()
  | Some plan ->
      List.iter
        (fun location ->
          offline.(location) <- false;
          Ledger.record_repair ledger ~round ~location)
        (Fault.repairs_at plan ~round);
      List.iter
        (fun location ->
          offline.(location) <- true;
          assignment.(location) <- None;
          Ledger.record_crash ledger ~round ~location)
        (Fault.crashes_at plan ~round));
  (* Drop phase: jobs with deadline = round are dropped. *)
  let m0 = mark t in
  let dropped = Job_pool.drop_expired pool ~round in
  (match dropped with
  | _ :: _ when Logs.Src.level Log.src = Some Logs.Debug ->
      Log.debug (fun m -> m "round %d: dropped %a" round pp_dropped dropped)
  | _ -> ());
  record_drops ledger ~round dropped;
  t.pi.p_on_drop ~round ~dropped;
  tick t 0 m0;
  (* Arrival phase: consume the fed buffer. *)
  let m1 = mark t in
  (* An already-normalized request (everything [Instance.make] produces)
     is consumed as is: the [Engine.run] fast path pays one short list
     scan ([Types.is_normalized]) and no allocation. *)
  let request = Types.normalize_request (buffered_request t) in
  t.first_chunk <- [];
  t.buffered <- [];
  t.buffered_jobs <- 0;
  (match request with
  | [] -> ()
  | _ :: _ -> t.history <- (round, request) :: t.history);
  add_arrivals pool ~bounds ~round request;
  t.pi.p_on_arrival ~round ~request;
  tick t 1 m1;
  (* Reconfiguration + execution, [speed] mini-rounds. *)
  for mini_round = 0 to speed - 1 do
    let m2 = mark t in
    let view = { Policy.round; mini_round; n; delta; bounds; assignment; pool } in
    let target = t.pi.p_reconfigure view in
    if Array.length target <> n then
      invalid_arg
        (Printf.sprintf "%s: policy %s returned %d locations, expected %d"
           t.label t.pi.p_name (Array.length target) n);
    for location = 0 to n - 1 do
      match target.(location) with
      | None -> () (* inactive this mini-round; physical color persists *)
      | Some next as wanted ->
          if next < 0 || next >= num_colors then
            invalid_arg
              (Printf.sprintf
                 "%s: policy %s returned color %d at location %d (round %d, \
                  mini-round %d); valid colors are 0..%d"
                 t.label t.pi.p_name next location round mini_round
                 (num_colors - 1));
          let unchanged =
            match assignment.(location) with
            | Some current -> current = next
            | None -> false
          in
          if offline.(location) then
            () (* offline: the target is ignored, nothing is paid *)
          else if not unchanged then
            if
              match t.faults with
              | None -> false
              | Some plan -> Fault.reconfig_fails plan ~round ~location
            then
              Ledger.record_failed_reconfig ledger ~round ~mini_round ~location
                ~previous:assignment.(location) ~attempted:next
            else begin
              Ledger.record_reconfig ledger ~round ~mini_round ~location
                ~previous:assignment.(location) ~next;
              assignment.(location) <- wanted
            end
    done;
    tick t 2 m2;
    let m3 = mark t in
    for location = 0 to n - 1 do
      (* Execute the location's PHYSICAL color: after a failed
         reconfiguration it differs from the policy's target. *)
      match (target.(location), assignment.(location)) with
      | Some _, Some color when not offline.(location) -> (
          match Job_pool.execute pool ~color ~round with
          | -1 -> ()
          | deadline ->
              Ledger.record_execute ledger ~round ~mini_round ~location ~color
                ~deadline)
      | _ -> ()
    done;
    tick t 3 m3
  done;
  (* End of round: the streamed round snapshot. *)
  Event_sink.write_round sink ~round
    ~pending:(Job_pool.total_pending pool)
    ~reconfigs:(Ledger.reconfig_count ledger - reconfigs0)
    ~drops:(Ledger.drop_count ledger - drops0)
    ~execs:(Ledger.exec_count ledger - execs0);
  t.round <- round + 1;
  if t.checkpoint_every > 0 && t.round mod t.checkpoint_every = 0 then
    take_checkpoint t

let abort t ~reason =
  Event_sink.write_aborted t.sink ~round:t.round ~reason;
  Event_sink.flush t.sink

let finish t =
  if t.finished then invalid_arg (t.label ^ ": double finish");
  t.finished <- true;
  Event_sink.write_summary t.sink ~delta:t.config.delta
    ~reconfigs:(Ledger.reconfig_count t.ledger)
    ~failed:(Ledger.failed_reconfig_count t.ledger)
    ~drops:(Ledger.drop_count t.ledger)
    ~execs:(Ledger.exec_count t.ledger);
  Event_sink.flush t.sink;
  {
    ledger = t.ledger;
    stats = t.pi.p_stats ();
    final_assignment = t.assignment;
    profile = (if t.profile then Some t.prof else None);
  }

(* ---- snapshot (rrs-snap/2; rrs-snap/1 is read only) ----

   The document's source of truth for restore is the deterministic replay
   section: config + fault plan + a replay base + the arrivals to replay
   on top of it + the still buffered feed. The base is the latest
   checkpoint ([base] header, its [state] as [base_*] lines, the policy
   blob) and the arrivals are only those consumed since it; a stepper
   that has not checkpointed (or never does, [checkpoint_every = 0])
   writes no base and replays from round 0. The legacy rrs-snap/1 header
   lacks [checkpoint_every] and its document never has a base. Either
   way the [check_*] lines carry the current [state]; [restore] replays
   and cross-checks it, so a snapshot that does not reproduce
   (nondeterministic policy, a policy-serialization bug, version drift)
   fails loudly instead of silently diverging. *)

(* Append [fmt]'s output and a newline to [buffer]. *)
let line buffer fmt =
  Printf.kbprintf (fun b -> Buffer.add_char b '\n') buffer fmt

(* A JSON int array of [get] over [items], for [%a]. *)
let column get buffer items =
  Buffer.add_char buffer '[';
  List.iteri
    (fun i item ->
      if i > 0 then Buffer.add_char buffer ',';
      Buffer.add_string buffer (string_of_int (get item)))
    items;
  Buffer.add_char buffer ']'

let ints buffer array = column Fun.id buffer (Array.to_list array)

(* [(color, count)] arrivals or [(deadline, count)] runs as two columns. *)
let pairs keys buffer items =
  Printf.bprintf buffer "\"%s\":%a,\"counts\":%a" keys (column fst) items
    (column snd) items

(* The [<kind>_*] lines of [s]; only the cross-check's counters carry the
   total cost. *)
let state_lines buffer ~kind ?cost s =
  List.iter
    (fun (color, deadlines) ->
      line buffer "{\"type\":\"%s_pending\",\"color\":%d,%a}" kind color
        (pairs "deadlines") deadlines)
    s.pending;
  line buffer "{\"type\":\"%s_assignment\",\"colors\":%a}" kind ints
    s.assignment;
  if s.offline <> [] then
    line buffer "{\"type\":\"%s_offline\",\"locations\":%a}" kind
      (column Fun.id) s.offline;
  line buffer
    "{\"type\":\"%s_counters\",\"reconfigs\":%d,\"failed\":%d,\"drops\":%d,\
     \"execs\":%d%t}"
    kind s.reconfigs s.failed s.drops s.execs (fun buffer ->
      Option.iter (Printf.bprintf buffer ",\"cost\":%d") cost)

let snapshot t =
  let buffer = Buffer.create 1024 in
  line buffer
    "{\"schema\":%a,\"name\":%a,\"delta\":%d,\"n\":%d,\"speed\":%d,\
     \"horizon\":%d,\"bounds\":%a,\"policy\":%a,\"round\":%d,\
     \"accepted\":%d,\"checkpoint_every\":%d}"
    Json.escape_into snapshot_schema Json.escape_into t.config.name
    t.config.delta t.config.n t.config.speed t.config.horizon ints
    t.config.bounds Json.escape_into t.pi.p_name t.round t.accepted_jobs
    t.checkpoint_every;
  Option.iter
    (fun plan ->
      List.iter
        (fun { Fault.location; from_round; until_round } ->
          line buffer
            "{\"type\":\"fault_crash\",\"location\":%d,\"from\":%d,\
             \"until\":%d}"
            location from_round until_round)
        plan.Fault.crashes;
      List.iter
        (fun { Fault.rf_round; rf_location } ->
          line buffer
            "{\"type\":\"fault_reconfig\",\"round\":%d,\"location\":%d}"
            rf_round rf_location)
        plan.Fault.reconfig_failures)
    t.fault_plan;
  (* The replay base: restore seeds this state directly instead of
     replaying rounds [0..base.round-1]. *)
  Option.iter
    (fun ck ->
      line buffer "{\"type\":\"base\",\"round\":%d,\"accepted\":%d}"
        ck.ck_round ck.ck_accepted;
      state_lines buffer ~kind:"base" ck.ck_state;
      line buffer "{\"type\":\"base_policy\",\"blob\":%a}" Json.escape_into
        ck.ck_policy)
    t.base;
  List.iter
    (fun (round, request) ->
      line buffer "{\"type\":\"arrival\",\"round\":%d,%a}" round
        (pairs "colors") request)
    (List.rev t.history);
  (match buffered_request t with
  | [] -> ()
  | request ->
      line buffer "{\"type\":\"buffered\",%a}" (pairs "colors") request);
  state_lines buffer ~kind:"check" ~cost:(Ledger.total_cost t.ledger)
    (state_of t);
  line buffer "{\"type\":\"end\"}";
  Buffer.contents buffer

let save t ~path = Atomic_file.write ~path (snapshot t)

(* ---- restore: replay + cross-check ---- *)

type parsed_snapshot = {
  ps_checkpoint_every : int; (* 0 in /1 documents *)
  ps_config : config;
  ps_policy : string;
  ps_round : int;
  ps_accepted : int;
  ps_faults : Fault.plan option;
  ps_base : checkpoint option; (* the replay base, when present *)
  ps_arrivals : (int * Types.request) list; (* chronological *)
  ps_buffered : Types.request;
  ps_check : state; (* the state the replay must reach *)
}

let parse_error fmt = Printf.ksprintf (fun m -> raise (Json.Parse_error m)) fmt

let parse_pairs fields keys =
  let firsts = Json.ints_field fields keys in
  let counts = Json.ints_field fields "counts" in
  if Array.length firsts <> Array.length counts then
    parse_error "%s/counts length mismatch" keys;
  Array.to_list (Array.map2 (fun x k -> (x, k)) firsts counts)

(* One section's [state] from [sections], the [(kind, (part, fields))]
   of its [<kind>_<part>] lines, newest first; every part but [pending]
   occurs at most once, as [parse_snapshot] checks. *)
let state_of_lines ~kind sections =
  let lines =
    List.rev_map snd (List.filter (fun (k, _) -> k = kind) sections)
  in
  let part name =
    match List.assoc_opt name lines with
    | Some fields -> fields
    | None -> parse_error "snapshot missing %s_%s" kind name
  in
  let assignment = Json.ints_field (part "assignment") "colors" in
  let counters = part "counters" in
  {
    pending =
      List.filter_map
        (fun (name, fields) ->
          if name <> "pending" then None
          else
            Some
              (Json.int_field fields "color", parse_pairs fields "deadlines"))
        lines;
    assignment;
    offline =
      (match List.assoc_opt "offline" lines with
      | None -> []
      | Some fields -> Array.to_list (Json.ints_field fields "locations"));
    reconfigs = Json.int_field counters "reconfigs";
    failed = Json.int_field counters "failed";
    drops = Json.int_field counters "drops";
    execs = Json.int_field counters "execs";
  }

let parse_snapshot text =
  match
    String.split_on_char '\n' text
    |> List.filter (fun line -> String.trim line <> "")
  with
  | [] -> Error "empty snapshot (no schema header)"
  | header :: rest -> (
      try
        let fields = Json.parse_fields header in
        let schema = Json.str_field fields "schema" in
        (* The legacy read-only schema: no checkpoint interval, no base. *)
        let schema_v1 = "rrs-snap/1" in
        if schema <> snapshot_schema && schema <> schema_v1 then
          parse_error "unsupported snapshot schema %S (want %S or %S)" schema
            snapshot_schema schema_v1;
        let v1 = schema = schema_v1 in
        let ps_config =
          {
            name = Json.str_field fields "name";
            delta = Json.int_field fields "delta";
            n = Json.int_field fields "n";
            speed = Json.int_field fields "speed";
            horizon = Json.int_field fields "horizon";
            bounds = Json.ints_field fields "bounds";
          }
        in
        let ps_policy = Json.str_field fields "policy" in
        let ps_round = Json.int_field fields "round" in
        let ps_accepted = Json.int_field fields "accepted" in
        let ps_checkpoint_every =
          if v1 then 0 else Json.int_field fields "checkpoint_every"
        in
        let crashes = ref [] and fault_reconfigs = ref [] in
        let arrivals = ref [] and buffered = ref [] in
        let base_header = ref None and base_policy = ref None in
        let sections = ref [] and seen = ref [] and ended = ref false in
        List.iteri
          (fun index line ->
            let number = index + 2 in
            if !ended then parse_error "line %d: content after end" number;
            let fields = Json.parse_fields line in
            let kind = Json.str_field fields "type" in
            (match kind with
            | "fault_crash" | "fault_reconfig" | "arrival" | "base_pending"
            | "check_pending" -> ()
            | _ ->
                if List.mem kind !seen then
                  parse_error "line %d: repeated %s line" number kind;
                seen := kind :: !seen);
            let only_v2 () =
              if v1 then parse_error "%S line in an rrs-snap/1 document" kind
            in
            match kind with
            | "fault_crash" ->
                crashes :=
                  {
                    Fault.location = Json.int_field fields "location";
                    from_round = Json.int_field fields "from";
                    until_round = Json.int_field fields "until";
                  }
                  :: !crashes
            | "fault_reconfig" ->
                fault_reconfigs :=
                  {
                    Fault.rf_round = Json.int_field fields "round";
                    rf_location = Json.int_field fields "location";
                  }
                  :: !fault_reconfigs
            | "arrival" ->
                arrivals :=
                  (Json.int_field fields "round", parse_pairs fields "colors")
                  :: !arrivals
            | "buffered" -> buffered := parse_pairs fields "colors"
            | "base" ->
                only_v2 ();
                base_header :=
                  Some
                    ( Json.int_field fields "round",
                      Json.int_field fields "accepted" )
            | "base_policy" ->
                only_v2 ();
                base_policy := Some (Json.str_field fields "blob")
            | "end" -> ended := true
            | _ -> (
                match String.split_on_char '_' kind with
                | [ section; ("pending" | "assignment" | "offline" | "counters")
                    as part ]
                  when section = "base" || section = "check" ->
                    if section = "base" then only_v2 ();
                    sections := (section, (part, fields)) :: !sections
                | _ ->
                    parse_error "line %d: unknown snapshot line %S" number
                      kind))
          rest;
        if not !ended then parse_error "truncated snapshot (no end line)";
        let ps_base =
          match (!base_header, !base_policy) with
          | None, None when not (List.mem_assoc "base" !sections) -> None
          | None, _ -> parse_error "base_* lines without a base line"
          | Some (ck_round, ck_accepted), policy ->
              let ck_state = state_of_lines ~kind:"base" !sections in
              let ck_policy =
                match policy with
                | Some blob -> blob
                | None -> parse_error "snapshot missing base_policy"
              in
              Some { ck_round; ck_accepted; ck_state; ck_policy }
        in
        let ps_check = state_of_lines ~kind:"check" !sections in
        Ok
          {
            ps_checkpoint_every;
            ps_config;
            ps_policy;
            ps_round;
            ps_accepted;
            ps_faults =
              (if !crashes = [] && !fault_reconfigs = [] then None
               else
                 Some
                   (Fault.make ~name:"restored" ~crashes:(List.rev !crashes)
                      ~reconfig_failures:(List.rev !fault_reconfigs) ()));
            ps_base;
            ps_arrivals = List.rev !arrivals;
            ps_buffered = !buffered;
            ps_check;
          }
      with Json.Parse_error message | Fault.Invalid message -> Error message)

let check message condition = if condition then Ok () else Error message

let ( let* ) = Result.bind

(* The replayed state against the document's cross-check, part by part. *)
let verify t ps =
  let live = state_of t and snap = ps.ps_check in
  let failed fmt =
    Printf.ksprintf (fun m -> Error ("snapshot check failed: " ^ m)) fmt
  in
  let* () =
    if
      live.reconfigs = snap.reconfigs && live.failed = snap.failed
      && live.drops = snap.drops && live.execs = snap.execs
    then Ok ()
    else
      failed
        "replayed counters (reconfigs=%d failed=%d drops=%d execs=%d) differ \
         from snapshot (reconfigs=%d failed=%d drops=%d execs=%d)"
        live.reconfigs live.failed live.drops live.execs snap.reconfigs
        snap.failed snap.drops snap.execs
  in
  if t.accepted_jobs <> ps.ps_accepted then failed "accepted-job count differs"
  else if live.assignment <> snap.assignment then failed "assignment differs"
  else if live.offline <> snap.offline then failed "offline set differs"
  else
    let num_colors = Array.length t.config.bounds in
    let differs (color, deadlines) =
      color < 0 || color >= num_colors
      || Option.value ~default:[] (List.assoc_opt color live.pending)
         <> deadlines
    in
    match List.find_opt differs snap.pending with
    | Some (color, _) -> failed "pending multiset of color %d differs" color
    | None -> (
        match
          List.find_opt
            (fun (color, _) -> not (List.mem_assoc color snap.pending))
            live.pending
        with
        | Some (color, _) ->
            failed "color %d pending after replay but idle in snapshot" color
        | None -> Ok ())

(* Install a checkpoint into a freshly created stepper: re-add the
   pending jobs (the pool accepts them: each lies in the window
   [ck_round, ck_round + D - 1] a live pool holds at that round, checked
   here; the next [step]'s drop phase advances the wheel), blit the
   assignment/offline sets, seed the ledger counters, apply the policy
   blob, and mark the trace as checkpoint-seeded so readers can reconcile
   the partial event stream. *)
let seed_checkpoint t ck =
  let s = ck.ck_state and num_colors = Array.length t.config.bounds in
  if Array.length s.assignment <> t.config.n then
    failwith "base_assignment length differs from n";
  List.iter
    (fun (color, deadlines) ->
      if color < 0 || color >= num_colors then
        failwith (Printf.sprintf "base_pending of unknown color %d" color);
      let last = ck.ck_round + t.config.bounds.(color) - 1 in
      List.iter
        (fun (deadline, count) ->
          if deadline < ck.ck_round || deadline > last then
            failwith
              (Printf.sprintf
                 "base_pending of color %d has deadline %d outside %d..%d"
                 color deadline ck.ck_round last);
          Job_pool.add t.pool ~color ~deadline ~count)
        deadlines)
    s.pending;
  Array.iteri
    (fun location c ->
      if c < -1 || c >= num_colors then
        failwith
          (Printf.sprintf "base_assignment of unknown color %d at location %d"
             c location);
      t.assignment.(location) <- (if c < 0 then None else Some c))
    s.assignment;
  List.iter
    (fun location ->
      if location < 0 || location >= t.config.n then
        failwith
          (Printf.sprintf "base_offline location %d out of range" location);
      t.offline.(location) <- true)
    s.offline;
  Ledger.seed t.ledger ~reconfigs:s.reconfigs ~failed:s.failed ~drops:s.drops
    ~execs:s.execs;
  t.round <- ck.ck_round;
  t.accepted_jobs <- ck.ck_accepted;
  t.pi.p_deserialize ck.ck_policy;
  t.base <- Some ck;
  Event_sink.write_restored t.sink ~round:ck.ck_round ~reconfigs:s.reconfigs
    ~failed:s.failed ~drops:s.drops ~execs:s.execs

let restore ?record_events ?sink ?profile ?label ?checkpoint_every
    ~policy:(module P : Policy.POLICY) text =
  let* ps = parse_snapshot text in
  let* () =
    check
      (Printf.sprintf "snapshot was taken under policy %S, not %S" ps.ps_policy
         P.name)
      (ps.ps_policy = P.name)
  in
  match
    let t =
      create ?record_events ?sink ?profile ?faults:ps.ps_faults ?label
        ~checkpoint_every:
          (match checkpoint_every with
          | Some k -> k
          | None -> ps.ps_checkpoint_every)
        ~policy:(module P) ps.ps_config
    in
    (* Deterministic replay from the base (round 0 for /1, the embedded
       checkpoint for /2). The replayed events are re-emitted into the
       (fresh) sink, so the restored stream is a self-consistent
       rrs-events document — complete for /1, checkpoint-marked for /2. *)
    let start =
      match ps.ps_base with
      | None -> 0
      | Some ck ->
          if ck.ck_round > ps.ps_round then
            failwith
              (Printf.sprintf "base round %d > snapshot round %d" ck.ck_round
                 ps.ps_round);
          seed_checkpoint t ck;
          ck.ck_round
    in
    let arrivals = ref ps.ps_arrivals in
    for round = start to ps.ps_round - 1 do
      (match !arrivals with
      | (r, request) :: rest when r = round ->
          feed t request;
          arrivals := rest
      | _ -> ());
      step t
    done;
    (match !arrivals with
    | [] -> ()
    | (r, _) :: _ ->
        failwith
          (Printf.sprintf
             "snapshot arrival at round %d outside replay range %d..%d" r start
             (ps.ps_round - 1)));
    feed t ps.ps_buffered;
    t
  with
  | t ->
      let* () = verify t ps in
      Ok t
  | exception (Json.Parse_error message | Failure message | Invalid_argument message) ->
      Error ("restore: " ^ message)
  | exception e -> Error ("restore: " ^ Printexc.to_string e)
