module Types = Rrs_sim.Types
module Ranked_set = Rrs_ds.Ranked_set

type color_info = {
  mutable cnt : int;
  mutable eligible : bool;
  mutable last_wrap : int; (* round of the most recent wrap; -1 if none *)
  mutable prev_wrap : int; (* round of the wrap before that; -1 if none *)
  mutable prev2_wrap : int; (* round of the wrap before prev_wrap; -1 if none *)
  mutable epochs_ended : int;
  mutable active_in_epoch : bool; (* any arrival since the last epoch end *)
  mutable eligible_drops : int;
  mutable ineligible_drops : int;
  mutable last_timestamp : int; (* last value reported, to detect updates *)
}

type t = {
  delta : int;
  bounds : int array;
  info : color_info array;
  dd : int array; (* per-color deadline [l.dd] *)
  group_bounds : int array; (* distinct bounds, ascending *)
  group_colors : int array array; (* colors of each bound, ascending *)
  mutable eligible_count : int;
  (* The eligible colors in each rank order the owner asked for. *)
  by_recency : Ranked_set.t option; (* (-ts, 0, id) *)
  by_recency2 : Ranked_set.t option; (* (-ts2, -ts, id) *)
  by_deadline : Ranked_set.t option; (* (dd, bound, id) *)
  all_by_deadline : Ranked_set.t option; (* every color, (dd, bound, id) *)
  (* The timestamp keys, current as of round [keys_round]: the ΔLRU and
     the LRU-2 timestamp of every color. They change only at a color's
     boundaries and at its wraps, so [on_arrival] refreshes just those
     colors; any other jump in rounds recomputes them all (and re-ranks
     the two recency orders). *)
  ts : int array;
  ts2 : int array;
  mutable keys_round : int;
  mutable wraps : int;
  mutable timestamp_updates : int;
  mutable timestamp_event_log : (int * int) list; (* reverse chronological *)
  record_timestamp_events : bool;
  on_timestamp : (round:int -> color:int -> unit) option;
}

let fresh_info () =
  {
    cnt = 0;
    eligible = false;
    last_wrap = -1;
    prev_wrap = -1;
    prev2_wrap = -1;
    epochs_ended = 0;
    active_in_epoch = false;
    eligible_drops = 0;
    ineligible_drops = 0;
    last_timestamp = 0;
  }

type order = Recency | Recency2 | Deadline | Deadline_all

let create ?(record_timestamp_events = false) ?on_timestamp
    ?(orders = [ Recency; Recency2; Deadline ]) ~delta ~bounds () =
  let num_colors = Array.length bounds in
  let ranked_set order =
    if List.mem order orders then Some (Ranked_set.create ~universe:num_colors)
    else None
  in
  let group_bounds = List.sort_uniq Int.compare (Array.to_list bounds) in
  let group_colors =
    List.map
      (fun bound ->
        List.filter (fun color -> bounds.(color) = bound) (List.init num_colors Fun.id)
        |> Array.of_list)
      group_bounds
  in
  {
    delta;
    bounds;
    info = Array.init num_colors (fun _ -> fresh_info ());
    dd = Array.make num_colors 0;
    group_bounds = Array.of_list group_bounds;
    group_colors = Array.of_list group_colors;
    eligible_count = 0;
    by_recency = ranked_set Recency;
    by_recency2 = ranked_set Recency2;
    by_deadline = ranked_set Deadline;
    all_by_deadline =
      Option.map
        (fun set ->
          Array.iteri (fun color bound -> Ranked_set.add set color ~k1:0 ~k2:bound) bounds;
          set)
        (ranked_set Deadline_all);
    ts = Array.make num_colors 0;
    ts2 = Array.make num_colors 0;
    (* A fresh state has no wraps: every key is 0, which is exact for the
       round before round 0. *)
    keys_round = -1;
    wraps = 0;
    timestamp_updates = 0;
    timestamp_event_log = [];
    record_timestamp_events;
    on_timestamp;
  }

let num_colors t = Array.length t.info
let eligible t color = t.info.(color).eligible
let deadline t color = t.dd.(color)
let bound t color = t.bounds.(color)
let eligible_count t = t.eligible_count

let ranked t order i =
  match
    match order with
    | Recency -> t.by_recency
    | Recency2 -> t.by_recency2
    | Deadline -> t.by_deadline
    | Deadline_all -> t.all_by_deadline
  with
  | Some set -> Ranked_set.nth set i
  | None -> invalid_arg "Color_state.ranked: order not kept by this state"

let rank set color ~k1 ~k2 =
  match set with Some set -> Ranked_set.add set color ~k1 ~k2 | None -> ()

let unrank set color =
  match set with Some set -> Ranked_set.remove set color | None -> ()

let clear_ranks set = match set with Some set -> Ranked_set.clear set | None -> ()

(* Timestamp of [color] as of [round]: the latest wrap round strictly
   before [k], where [k] is the most recent multiple of the color's bound.
   Wraps happen only at multiples of the bound, so the two most recent
   wrap rounds suffice: [last_wrap <= k] always, with equality exactly
   when the wrap happened at boundary [k] itself. *)
let timestamp t color ~round =
  let info = t.info.(color) in
  let k = round - (round mod t.bounds.(color)) in
  if info.last_wrap >= 0 && info.last_wrap < k then info.last_wrap
  else if info.prev_wrap >= 0 then info.prev_wrap
  else 0

(* LRU-2 timestamp: the second-to-last wrap round strictly before the
   most recent boundary [k] (O'Neil et al.'s LRU-K with K = 2, adapted to
   the ΔLRU notion of a reference = a counter wrap). *)
let timestamp2 t color ~round =
  let info = t.info.(color) in
  let k = round - (round mod t.bounds.(color)) in
  if info.last_wrap >= 0 && info.last_wrap < k then
    if info.prev_wrap >= 0 then info.prev_wrap else 0
  else if info.prev_wrap >= 0 then
    if info.prev2_wrap >= 0 then info.prev2_wrap else 0
  else 0

let rank_recency t color =
  rank t.by_recency color ~k1:(-t.ts.(color)) ~k2:0;
  rank t.by_recency2 color ~k1:(-t.ts2.(color)) ~k2:(-t.ts.(color))

let refresh_keys t color ~round =
  let ts = timestamp t color ~round and ts2 = timestamp2 t color ~round in
  if ts <> t.ts.(color) || ts2 <> t.ts2.(color) then begin
    t.ts.(color) <- ts;
    t.ts2.(color) <- ts2;
    if t.info.(color).eligible then rank_recency t color
  end

let rebuild_keys t ~round =
  clear_ranks t.by_recency;
  clear_ranks t.by_recency2;
  for color = 0 to num_colors t - 1 do
    t.ts.(color) <- timestamp t color ~round;
    t.ts2.(color) <- timestamp2 t color ~round;
    if t.info.(color).eligible then rank_recency t color
  done;
  t.keys_round <- round

let sync_keys t ~round = if t.keys_round <> round then rebuild_keys t ~round


(* A timestamp update event of [color] (Section 3.4) happens when the
   derived timestamp changes value; we detect it at boundaries, where it
   can only change. *)
let note_timestamp t color ~round =
  let info = t.info.(color) in
  let current = timestamp t color ~round in
  if current <> info.last_timestamp then begin
    info.last_timestamp <- current;
    t.timestamp_updates <- t.timestamp_updates + 1;
    if t.record_timestamp_events then
      t.timestamp_event_log <- (round, color) :: t.timestamp_event_log;
    match t.on_timestamp with
    | None -> ()
    | Some hook -> hook ~round ~color
  end

let set_ineligible t color info =
  if info.eligible then t.eligible_count <- t.eligible_count - 1;
  info.eligible <- false;
  unrank t.by_recency color;
  unrank t.by_recency2 color;
  unrank t.by_deadline color

let set_eligible t color info =
  if not info.eligible then t.eligible_count <- t.eligible_count + 1;
  info.eligible <- true;
  rank_recency t color;
  rank t.by_deadline color ~k1:t.dd.(color) ~k2:t.bounds.(color)

let rec classify_drops t = function
  | [] -> ()
  | (color, count) :: rest ->
      let info = t.info.(color) in
      if info.eligible then info.eligible_drops <- info.eligible_drops + count
      else info.ineligible_drops <- info.ineligible_drops + count;
      classify_drops t rest

let on_drop t ~round ~dropped ~in_cache =
  (* Classify this round's drops with pre-reset eligibility. *)
  classify_drops t dropped;
  (* Boundary resets: an eligible, uncached color becomes ineligible and
     its counter resets — the end of an epoch. *)
  for g = 0 to Array.length t.group_bounds - 1 do
    if round mod t.group_bounds.(g) = 0 then begin
      let colors = t.group_colors.(g) in
      for i = 0 to Array.length colors - 1 do
        let color = colors.(i) in
        let info = t.info.(color) in
        if info.eligible && not (in_cache color) then begin
          set_ineligible t color info;
          info.cnt <- 0;
          info.epochs_ended <- info.epochs_ended + 1;
          info.active_in_epoch <- false
        end
      done
    end
  done

let rec apply_arrivals t ~round ~incremental = function
  | [] -> ()
  | (color, count) :: rest ->
      let info = t.info.(color) in
      if count > 0 then begin
        info.active_in_epoch <- true;
        info.cnt <- info.cnt + count;
        if info.cnt >= t.delta then begin
          info.cnt <- info.cnt mod t.delta;
          info.prev2_wrap <- info.prev_wrap;
          info.prev_wrap <- info.last_wrap;
          info.last_wrap <- round;
          t.wraps <- t.wraps + 1;
          if not info.eligible then set_eligible t color info;
          if incremental then refresh_keys t color ~round
        end
      end;
      apply_arrivals t ~round ~incremental rest

let on_arrival t ~round ~request =
  let incremental = round = t.keys_round + 1 in
  (* Every color at its boundary refreshes its deadline (and its keys:
     the boundary moves its timestamp window). *)
  for g = 0 to Array.length t.group_bounds - 1 do
    let bound = t.group_bounds.(g) in
    if round mod bound = 0 then begin
      let colors = t.group_colors.(g) in
      for i = 0 to Array.length colors - 1 do
        let color = colors.(i) in
        t.dd.(color) <- round + bound;
        if t.info.(color).eligible then
          rank t.by_deadline color ~k1:(round + bound) ~k2:bound;
        rank t.all_by_deadline color ~k1:(round + bound) ~k2:bound;
        note_timestamp t color ~round;
        if incremental then refresh_keys t color ~round
      done
    end
  done;
  (* Arriving jobs update counters; a wrap makes the color eligible. *)
  apply_arrivals t ~round ~incremental request;
  if incremental then t.keys_round <- round else rebuild_keys t ~round

let stats t =
  let epochs = ref 0 and eligible_drops = ref 0 and ineligible_drops = ref 0 in
  Array.iter
    (fun info ->
      epochs := !epochs + info.epochs_ended + (if info.active_in_epoch then 1 else 0);
      eligible_drops := !eligible_drops + info.eligible_drops;
      ineligible_drops := !ineligible_drops + info.ineligible_drops)
    t.info;
  [
    ("epochs", !epochs);
    ("wraps", t.wraps);
    ("timestamp_updates", t.timestamp_updates);
    ("eligible_drops", !eligible_drops);
    ("ineligible_drops", !ineligible_drops);
  ]

let timestamp_events t = List.rev t.timestamp_event_log

(* ---- serialization (the rrs-snap/2 policy-blob building blocks) ----

   Field fragments, not a whole object, so a policy can splice them into
   its own flat blob next to its cached set and counters. The timestamp
   event log is deliberately NOT serialized: it grows with rounds served,
   which is exactly what checkpointed snapshots exist to avoid — its only
   consumer (super-epoch counting) is maintained incrementally via
   [on_timestamp] instead. *)

module Json = Rrs_sim.Event_sink.Json

let ints_to_json values =
  let buffer = Buffer.create 64 in
  Buffer.add_char buffer '[';
  Array.iteri
    (fun i v ->
      if i > 0 then Buffer.add_char buffer ',';
      Buffer.add_string buffer (string_of_int v))
    values;
  Buffer.add_char buffer ']';
  Buffer.contents buffer

let serialize_fields t =
  let per_color f = ints_to_json (Array.map f t.info) in
  let bool b = if b then 1 else 0 in
  Printf.sprintf
    "\"cs_cnt\":%s,\"cs_dd\":%s,\"cs_eligible\":%s,\"cs_last_wrap\":%s,\
     \"cs_prev_wrap\":%s,\"cs_prev2_wrap\":%s,\"cs_epochs_ended\":%s,\
     \"cs_active\":%s,\"cs_eligible_drops\":%s,\"cs_ineligible_drops\":%s,\
     \"cs_last_timestamp\":%s,\"cs_wraps\":%d,\"cs_timestamp_updates\":%d"
    (per_color (fun i -> i.cnt))
    (ints_to_json t.dd)
    (per_color (fun i -> bool i.eligible))
    (per_color (fun i -> i.last_wrap))
    (per_color (fun i -> i.prev_wrap))
    (per_color (fun i -> i.prev2_wrap))
    (per_color (fun i -> i.epochs_ended))
    (per_color (fun i -> bool i.active_in_epoch))
    (per_color (fun i -> i.eligible_drops))
    (per_color (fun i -> i.ineligible_drops))
    (per_color (fun i -> i.last_timestamp))
    t.wraps t.timestamp_updates

let deserialize_fields t fields =
  let colors = num_colors t in
  let per_color key apply =
    let values = Json.ints_field fields key in
    if Array.length values <> colors then
      raise
        (Json.Parse_error
           (Printf.sprintf "field %S: %d values for %d colors" key
              (Array.length values) colors));
    Array.iteri (fun color v -> apply color t.info.(color) v) values
  in
  let as_bool key v =
    match v with
    | 0 -> false
    | 1 -> true
    | _ -> raise (Json.Parse_error (Printf.sprintf "field %S: expected 0/1" key))
  in
  per_color "cs_cnt" (fun _ i v -> i.cnt <- v);
  per_color "cs_dd" (fun color _ v ->
      t.dd.(color) <- v;
      rank t.all_by_deadline color ~k1:v ~k2:t.bounds.(color));
  clear_ranks t.by_deadline;
  per_color "cs_eligible" (fun color i v ->
      if as_bool "cs_eligible" v then set_eligible t color i
      else set_ineligible t color i);
  per_color "cs_last_wrap" (fun _ i v -> i.last_wrap <- v);
  per_color "cs_prev_wrap" (fun _ i v -> i.prev_wrap <- v);
  per_color "cs_prev2_wrap" (fun _ i v -> i.prev2_wrap <- v);
  per_color "cs_epochs_ended" (fun _ i v -> i.epochs_ended <- v);
  per_color "cs_active" (fun _ i v -> i.active_in_epoch <- as_bool "cs_active" v);
  per_color "cs_eligible_drops" (fun _ i v -> i.eligible_drops <- v);
  per_color "cs_ineligible_drops" (fun _ i v -> i.ineligible_drops <- v);
  per_color "cs_last_timestamp" (fun _ i v -> i.last_timestamp <- v);
  t.wraps <- Json.int_field fields "cs_wraps";
  t.timestamp_updates <- Json.int_field fields "cs_timestamp_updates";
  t.timestamp_event_log <- [];
  (* The restored round is not known here: recompute every key at the
     next [on_arrival] or [sync_keys]. *)
  t.keys_round <- min_int
