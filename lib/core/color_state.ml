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
  mutable wrapped : bool; (* wrapped since its group's last boundary *)
}

(* The colors of one delay bound. They share every boundary, so they
   share their deadline [l.dd] too: it is stored once, here. *)
type group = {
  bound : int;
  colors : int array; (* ascending *)
  mutable dd : int;
  eligibles : int array; (* the eligible colors, ascending, [0 .. count - 1] *)
  mutable count : int;
  (* The colors that wrapped since the group's last boundary, in wrap
     order, [0 .. pending_count - 1]: only they can have a new timestamp
     at the next one. *)
  pending : int array;
  mutable pending_count : int;
}

type t = {
  delta : int;
  bounds : int array;
  info : color_info array;
  groups : group array; (* ascending bound *)
  group_of : group array; (* per color *)
  by_deadline : group array; (* the groups sorted by (dd, bound) *)
  mutable eligible_count : int;
  (* The eligible colors in each recency order the owner asked for. *)
  by_recency : Ranked_set.t option; (* (-ts, 0, id) *)
  by_recency2 : Ranked_set.t option; (* (-ts2, -ts, id) *)
  (* Counters that move whenever the recency orders, or the deadline
     orders, may have changed. *)
  mutable recency_version : int;
  mutable deadline_version : int;
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
    wrapped = false;
  }

type order = Recency | Recency2 | Deadline | Deadline_all

(* The position of [color] in the ascending [colors.(0 .. count - 1)] (or
   of a bound among the distinct bounds), or where it would go. *)
let position colors count color =
  let lo = ref 0 and hi = ref count in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if colors.(mid) < color then lo := mid + 1 else hi := mid
  done;
  !lo

let create ?on_timestamp ?(orders = [ Recency; Recency2; Deadline ]) ~delta ~bounds () =
  let num_colors = Array.length bounds in
  let ranked_set order =
    if List.mem order orders then Some (Ranked_set.create ~universe:num_colors)
    else None
  in
  let group_bounds = Array.of_list (List.sort_uniq Int.compare (Array.to_list bounds)) in
  let index bound = position group_bounds (Array.length group_bounds) bound in
  let sizes = Array.make (Array.length group_bounds) 0 in
  Array.iter (fun bound -> sizes.(index bound) <- sizes.(index bound) + 1) bounds;
  let groups =
    Array.mapi
      (fun i bound ->
        let size = sizes.(i) in
        {
          bound;
          colors = Array.make size 0;
          dd = 0;
          eligibles = Array.make size 0;
          count = 0;
          pending = Array.make size 0;
          pending_count = 0;
        })
      group_bounds
  in
  (* Fill each group's colors in ascending order, counting [sizes] down
     to the next free slot from the end. *)
  for color = num_colors - 1 downto 0 do
    let i = index bounds.(color) in
    sizes.(i) <- sizes.(i) - 1;
    groups.(i).colors.(sizes.(i)) <- color
  done;
  let group_of = Array.map (fun bound -> groups.(index bound)) bounds in
  {
    delta;
    bounds;
    info = Array.init num_colors (fun _ -> fresh_info ());
    groups;
    group_of;
    (* Every deadline starts at 0: ascending bound. *)
    by_deadline = Array.copy groups;
    eligible_count = 0;
    by_recency = ranked_set Recency;
    by_recency2 = ranked_set Recency2;
    recency_version = 0;
    deadline_version = 0;
    ts = Array.make num_colors 0;
    ts2 = Array.make num_colors 0;
    (* A fresh state has no wraps: every key is 0, which is exact for the
       round before round 0. *)
    keys_round = -1;
    wraps = 0;
    timestamp_updates = 0;
    on_timestamp;
  }

let num_colors t = Array.length t.info
let eligible t color = t.info.(color).eligible
let deadline t color = t.group_of.(color).dd
let bound t color = t.bounds.(color)
let eligible_count t = t.eligible_count
let version t = function
  | Recency | Recency2 -> t.recency_version
  | Deadline | Deadline_all -> t.deadline_version

let ranked t order i =
  match
    match order with
    | Recency -> t.by_recency
    | Recency2 -> t.by_recency2
    | Deadline | Deadline_all -> invalid_arg "Color_state.ranked: a deadline order"
  with
  | Some set -> Ranked_set.nth set i
  | None -> invalid_arg "Color_state.ranked: order not kept by this state"

let rec iter_colors colors f i count =
  i >= count || (f (Array.unsafe_get colors i) && iter_colors colors f (i + 1) count)

(* From position [i] of the group of rank [r] on. *)
let rec iter_groups groups ~all f r i =
  if r < Array.length groups then begin
    let g = groups.(r) in
    let go_on =
      if all then iter_colors g.colors f i (Array.length g.colors)
      else iter_colors g.eligibles f i g.count
    in
    if go_on then iter_groups groups ~all f (r + 1) 0
  end

let all_colors name = function
  | Deadline -> false
  | Deadline_all -> true
  | Recency | Recency2 -> invalid_arg (name ^ ": a recency order")

let iter_ranked t order f =
  iter_groups t.by_deadline ~all:(all_colors "Color_state.iter_ranked" order) f 0 0

let iter_ranked_after t order color f =
  let all = all_colors "Color_state.iter_ranked_after" order in
  let g = t.group_of.(color) in
  let r = ref 0 in
  while t.by_deadline.(!r) != g do
    incr r
  done;
  let i =
    if all then position g.colors (Array.length g.colors) color
    else position g.eligibles g.count color
  in
  iter_groups t.by_deadline ~all f !r (i + 1)

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
  rank t.by_recency2 color ~k1:(-t.ts2.(color)) ~k2:(-t.ts.(color));
  t.recency_version <- t.recency_version + 1

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
  t.recency_version <- t.recency_version + 1;
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
    match t.on_timestamp with
    | None -> ()
    | Some hook -> hook ~round ~color
  end

let set_ineligible t color info =
  if info.eligible then begin
    t.eligible_count <- t.eligible_count - 1;
    info.eligible <- false;
    let g = t.group_of.(color) in
    let p = position g.eligibles g.count color in
    Array.blit g.eligibles (p + 1) g.eligibles p (g.count - p - 1);
    g.count <- g.count - 1;
    t.deadline_version <- t.deadline_version + 1;
    unrank t.by_recency color;
    unrank t.by_recency2 color;
    t.recency_version <- t.recency_version + 1
  end

let set_eligible t color info =
  if not info.eligible then begin
    t.eligible_count <- t.eligible_count + 1;
    info.eligible <- true;
    let g = t.group_of.(color) in
    let p = position g.eligibles g.count color in
    Array.blit g.eligibles p g.eligibles (p + 1) (g.count - p);
    g.eligibles.(p) <- color;
    g.count <- g.count + 1;
    t.deadline_version <- t.deadline_version + 1;
    rank_recency t color
  end

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
     its counter resets — the end of an epoch. Only eligible colors can
     reset; walking them from the top keeps the unvisited ones in place. *)
  for r = 0 to Array.length t.groups - 1 do
    let g = t.groups.(r) in
    if round mod g.bound = 0 then
      for i = g.count - 1 downto 0 do
        let color = g.eligibles.(i) in
        if not (in_cache color) then begin
          let info = t.info.(color) in
          set_ineligible t color info;
          info.cnt <- 0;
          info.epochs_ended <- info.epochs_ended + 1;
          info.active_in_epoch <- false
        end
      done
  done

let mark_pending t color info =
  if not info.wrapped then begin
    info.wrapped <- true;
    let g = t.group_of.(color) in
    g.pending.(g.pending_count) <- color;
    g.pending_count <- g.pending_count + 1
  end

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
          mark_pending t color info;
          if not info.eligible then set_eligible t color info;
          if incremental then refresh_keys t color ~round
        end
      end;
      apply_arrivals t ~round ~incremental rest

(* Insertion sort: a boundary only moves a group's deadline later. *)
let sort_by_deadline groups =
  for i = 1 to Array.length groups - 1 do
    let g = groups.(i) in
    let j = ref (i - 1) in
    while
      !j >= 0
      && (groups.(!j).dd > g.dd || (groups.(!j).dd = g.dd && groups.(!j).bound > g.bound))
    do
      groups.(!j + 1) <- groups.(!j);
      decr j
    done;
    groups.(!j + 1) <- g
  done

(* A color's timestamp keys move at a boundary only when it wrapped since
   the previous one, so the boundary visits those colors alone, in
   ascending order (the order timestamp events are reported in). *)
let visit_pending t g ~round ~incremental =
  let pending = g.pending and count = g.pending_count in
  for i = 1 to count - 1 do
    let color = pending.(i) in
    let j = ref (i - 1) in
    while !j >= 0 && pending.(!j) > color do
      pending.(!j + 1) <- pending.(!j);
      decr j
    done;
    pending.(!j + 1) <- color
  done;
  for i = 0 to count - 1 do
    let color = pending.(i) in
    t.info.(color).wrapped <- false;
    note_timestamp t color ~round;
    if incremental then refresh_keys t color ~round
  done;
  g.pending_count <- 0

let on_arrival t ~round ~request =
  let incremental = round = t.keys_round + 1 in
  (* Every group at its boundary refreshes its deadline, and its colors
     that wrapped since the last one their timestamps. *)
  let moved = ref false in
  for r = 0 to Array.length t.groups - 1 do
    let g = t.groups.(r) in
    if round mod g.bound = 0 then begin
      g.dd <- round + g.bound;
      moved := true;
      visit_pending t g ~round ~incremental
    end
  done;
  if !moved then begin
    sort_by_deadline t.by_deadline;
    t.deadline_version <- t.deadline_version + 1
  end;
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
    (ints_to_json (Array.map (fun g -> g.dd) t.group_of))
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
  (* One deadline per bound group: a blob whose colors of one bound
     disagree was not written by this module. *)
  per_color "cs_dd" (fun color _ v ->
      let g = t.group_of.(color) in
      let first = g.colors.(0) in
      if color = first then g.dd <- v
      else if v <> g.dd then
        raise
          (Json.Parse_error
             (Printf.sprintf
                "field \"cs_dd\": color %d has deadline %d, but color %d of its \
                 bound group (bound %d) has %d"
                color v first g.bound g.dd)));
  sort_by_deadline t.by_deadline;
  t.deadline_version <- t.deadline_version + 1;
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
  (* The blob does not say which colors wrapped since their group's last
     boundary: every color whose timestamp may differ from the one last
     reported is visited at its next boundary. *)
  Array.iter (fun g -> g.pending_count <- 0) t.groups;
  Array.iteri
    (fun color info ->
      info.wrapped <- false;
      if info.last_wrap >= 0 || info.last_timestamp <> 0 then mark_pending t color info)
    t.info;
  (* The restored round is not known here: recompute every key at the
     next [on_arrival] or [sync_keys]. *)
  t.keys_round <- min_int
