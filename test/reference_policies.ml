(* The reference model of the engine's policies: the implementation of
   Binary_heap, Color_state, Ranking, Topk, Cache_layout, the registry
   policies, ΔLRU-2 and Landlord as they were before their per-round work was made
   event-driven (each reconfigure rebuilt its view from scratch: eligible
   list scans, comparison-closure top-k, Hashtbl cache halves and a
   Hashtbl-counting placement). Kept verbatim, apart from module paths,
   as the oracle the qcheck suite in [test_policies] compares the
   production policies against: byte-identical event streams, ledgers,
   final assignments and serialized blobs. *)

module Instrument = Rrs_core.Instrument

(* The array-backed min-heap under [Topk]; [test_ds] checks it. *)
module Binary_heap = struct
  module type ORDERED = sig
    type t

    val compare : t -> t -> int
  end

  module Make (Elt : ORDERED) = struct
    type t = {
      mutable data : Elt.t array;
      mutable size : int;
      capacity : int; (* length of the backing array at the first push *)
    }

    (* The backing array is created lazily on first push so that [create]
       needs no dummy element. *)
    let create ?(capacity = 16) () = { data = [||]; size = 0; capacity = max capacity 1 }

    let length h = h.size
    let is_empty h = h.size = 0

    let grow h x =
      if Array.length h.data = 0 then h.data <- Array.make h.capacity x
      else begin
        let data = Array.make (2 * Array.length h.data) h.data.(0) in
        Array.blit h.data 0 data 0 h.size;
        h.data <- data
      end

    let swap h i j =
      let tmp = h.data.(i) in
      h.data.(i) <- h.data.(j);
      h.data.(j) <- tmp

    let rec sift_up h i =
      if i > 0 then begin
        let parent = (i - 1) / 2 in
        if Elt.compare h.data.(i) h.data.(parent) < 0 then begin
          swap h i parent;
          sift_up h parent
        end
      end

    let rec sift_down h i =
      let left = (2 * i) + 1 in
      let right = left + 1 in
      let smallest = ref i in
      if left < h.size && Elt.compare h.data.(left) h.data.(!smallest) < 0 then
        smallest := left;
      if right < h.size && Elt.compare h.data.(right) h.data.(!smallest) < 0 then
        smallest := right;
      if !smallest <> i then begin
        swap h i !smallest;
        sift_down h !smallest
      end

    let push h x =
      if h.size >= Array.length h.data then grow h x;
      h.data.(h.size) <- x;
      h.size <- h.size + 1;
      sift_up h (h.size - 1)

    let of_list xs =
      match xs with
      | [] -> create ()
      | first :: _ ->
          let n = List.length xs in
          let data = Array.make (max n 16) first in
          List.iteri (fun i x -> data.(i) <- x) xs;
          let h = { data; size = n; capacity = 16 } in
          for i = (n / 2) - 1 downto 0 do
            sift_down h i
          done;
          h

    let peek_min h = if h.size = 0 then raise Not_found else h.data.(0)

    let pop_min h =
      if h.size = 0 then raise Not_found;
      let min = h.data.(0) in
      h.size <- h.size - 1;
      if h.size > 0 then begin
        h.data.(0) <- h.data.(h.size);
        sift_down h 0
      end;
      min

    let pop_min_opt h = if h.size = 0 then None else Some (pop_min h)
    let clear h = h.size <- 0

    let iter f h =
      for i = 0 to h.size - 1 do
        f h.data.(i)
      done

    let to_sorted_list h =
      if h.size = 0 then []
      else begin
        let copy = { h with data = Array.sub h.data 0 h.size } in
        let rec drain acc =
          match pop_min_opt copy with
          | None -> List.rev acc
          | Some x -> drain (x :: acc)
        in
        drain []
      end

    let check_invariant h =
      let ok = ref true in
      for i = 1 to h.size - 1 do
        if Elt.compare h.data.((i - 1) / 2) h.data.(i) > 0 then ok := false
      done;
      !ok
  end
end

module Topk = struct
  (* A size-k max-heap (reversed comparison) of the best elements seen so
     far: a new element replaces the heap root when it beats the current
     worst of the best. *)

  let select (type a) ~(compare : a -> a -> int) ~k iter =
    if k <= 0 then []
    else begin
      let module Max = Binary_heap.Make (struct
        type t = a

        let compare x y = compare y x
      end) in
      let heap = Max.create ~capacity:(k + 1) () in
      let consider x =
        if Max.length heap < k then Max.push heap x
        else if compare x (Max.peek_min heap) < 0 then begin
          ignore (Max.pop_min heap);
          Max.push heap x
        end
      in
      iter consider;
      (* The max-heap's sorted order is descending under [compare]. *)
      List.rev (Max.to_sorted_list heap)
    end

  let select_list ~compare ~k xs = select ~compare ~k (fun f -> List.iter f xs)
end

module Color_state = struct
  module Types = Rrs_sim.Types

  type color_info = {
    mutable cnt : int;
    mutable dd : int;
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
    boundary_groups : (int * int list) list; (* (bound, colors with that bound) *)
    mutable wraps : int;
    mutable timestamp_updates : int;
    on_timestamp : (round:int -> color:int -> unit) option;
  }

  let fresh_info () =
    {
      cnt = 0;
      dd = 0;
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

  let create ?on_timestamp ~delta ~bounds () =
    let num_colors = Array.length bounds in
    let groups = Hashtbl.create 8 in
    Array.iteri
      (fun color bound ->
        let colors = try Hashtbl.find groups bound with Not_found -> [] in
        Hashtbl.replace groups bound (color :: colors))
      bounds;
    let boundary_groups =
      Hashtbl.fold (fun bound colors acc -> (bound, List.rev colors) :: acc) groups []
      |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
    in
    {
      delta;
      bounds;
      info = Array.init num_colors (fun _ -> fresh_info ());
      boundary_groups;
      wraps = 0;
      timestamp_updates = 0;
      on_timestamp;
    }

  let num_colors t = Array.length t.info
  let eligible t color = t.info.(color).eligible
  let deadline t color = t.info.(color).dd

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

  let iter_boundary_colors t ~round f =
    List.iter
      (fun (bound, colors) -> if round mod bound = 0 then List.iter f colors)
      t.boundary_groups

  let on_drop t ~round ~dropped ~in_cache =
    (* Classify this round's drops with pre-reset eligibility. *)
    List.iter
      (fun (color, count) ->
        let info = t.info.(color) in
        if info.eligible then info.eligible_drops <- info.eligible_drops + count
        else info.ineligible_drops <- info.ineligible_drops + count)
      dropped;
    (* Boundary resets: an eligible, uncached color becomes ineligible and
       its counter resets — the end of an epoch. *)
    iter_boundary_colors t ~round (fun color ->
        let info = t.info.(color) in
        if info.eligible && not (in_cache color) then begin
          info.eligible <- false;
          info.cnt <- 0;
          info.epochs_ended <- info.epochs_ended + 1;
          info.active_in_epoch <- false
        end)

  let on_arrival t ~round ~request =
    (* Every color at its boundary refreshes its deadline. *)
    iter_boundary_colors t ~round (fun color ->
        let info = t.info.(color) in
        info.dd <- round + t.bounds.(color);
        note_timestamp t color ~round);
    (* Arriving jobs update counters; a wrap makes the color eligible. *)
    List.iter
      (fun (color, count) ->
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
            if not info.eligible then info.eligible <- true
          end
        end)
      request

  let eligible_colors t =
    let acc = ref [] in
    for color = num_colors t - 1 downto 0 do
      if t.info.(color).eligible then acc := color :: !acc
    done;
    !acc

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
      (per_color (fun i -> i.dd))
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
      Array.iteri (fun color v -> apply t.info.(color) v) values
    in
    let as_bool key v =
      match v with
      | 0 -> false
      | 1 -> true
      | _ -> raise (Json.Parse_error (Printf.sprintf "field %S: expected 0/1" key))
    in
    per_color "cs_cnt" (fun i v -> i.cnt <- v);
    per_color "cs_dd" (fun i v -> i.dd <- v);
    per_color "cs_eligible" (fun i v -> i.eligible <- as_bool "cs_eligible" v);
    per_color "cs_last_wrap" (fun i v -> i.last_wrap <- v);
    per_color "cs_prev_wrap" (fun i v -> i.prev_wrap <- v);
    per_color "cs_prev2_wrap" (fun i v -> i.prev2_wrap <- v);
    per_color "cs_epochs_ended" (fun i v -> i.epochs_ended <- v);
    per_color "cs_active" (fun i v -> i.active_in_epoch <- as_bool "cs_active" v);
    per_color "cs_eligible_drops" (fun i v -> i.eligible_drops <- v);
    per_color "cs_ineligible_drops" (fun i v -> i.ineligible_drops <- v);
    per_color "cs_last_timestamp" (fun i v -> i.last_timestamp <- v);
    t.wraps <- Json.int_field fields "cs_wraps";
    t.timestamp_updates <- Json.int_field fields "cs_timestamp_updates"
end

module Ranking = struct
  module Job_pool = Rrs_sim.Job_pool

  let edf_compare state pool ~bounds a b =
    let nonidle_a = Job_pool.nonidle pool a in
    let nonidle_b = Job_pool.nonidle pool b in
    if nonidle_a <> nonidle_b then compare nonidle_b nonidle_a (* nonidle first *)
    else
      let by_deadline =
        Int.compare (Color_state.deadline state a) (Color_state.deadline state b)
      in
      if by_deadline <> 0 then by_deadline
      else
        let by_bound = Int.compare bounds.(a) bounds.(b) in
        if by_bound <> 0 then by_bound else Int.compare a b

  let lru_compare state ~round a b =
    let by_timestamp =
      Int.compare
        (Color_state.timestamp state b ~round)
        (Color_state.timestamp state a ~round)
      (* larger timestamp = more recent = better *)
    in
    if by_timestamp <> 0 then by_timestamp else Int.compare a b

  let job_compare pool ~bounds a b =
    let deadline color =
      match Job_pool.earliest_deadline pool color with
      | Some d -> d
      | None -> invalid_arg "Ranking.job_compare: idle color"
    in
    let by_deadline = Int.compare (deadline a) (deadline b) in
    if by_deadline <> 0 then by_deadline
    else
      let by_bound = Int.compare bounds.(a) bounds.(b) in
      if by_bound <> 0 then by_bound else Int.compare a b
end

module Cache_layout = struct
  let place ?into ~n ~copies ~current ~want () =
    if copies < 1 then invalid_arg "Cache_layout.place: copies must be >= 1";
    let needed = Hashtbl.create 16 in
    List.iter
      (fun color ->
        if Hashtbl.mem needed color then
          invalid_arg "Cache_layout.place: duplicate wanted color";
        Hashtbl.replace needed color copies)
      want;
    if copies * List.length want > n then
      invalid_arg
        (Printf.sprintf "Cache_layout.place: %d copies of %d colors exceed %d locations"
           copies (List.length want) n);
    let target =
      match into with
      | Some buffer when Array.length buffer = n ->
          Array.fill buffer 0 n None;
          buffer
      | Some _ -> invalid_arg "Cache_layout.place: into buffer has wrong length"
      | None -> Array.make n None
    in
    (* Keep existing placements of wanted colors. *)
    for location = 0 to n - 1 do
      match current.(location) with
      | Some color when (try Hashtbl.find needed color with Not_found -> 0) > 0 ->
          target.(location) <- Some color;
          Hashtbl.replace needed color (Hashtbl.find needed color - 1)
      | Some _ | None -> ()
    done;
    (* Fill missing copies into the lowest free locations. *)
    let next_free = ref 0 in
    let take_free () =
      while !next_free < n && target.(!next_free) <> None do incr next_free done;
      if !next_free >= n then invalid_arg "Cache_layout.place: out of locations";
      let location = !next_free in
      incr next_free;
      location
    in
    List.iter
      (fun color ->
        let missing = try Hashtbl.find needed color with Not_found -> 0 in
        for _ = 1 to missing do
          target.(take_free ()) <- Some color
        done)
      want;
    target
end

module Lru_edf_core = struct
  module Types = Rrs_sim.Types
  module Job_pool = Rrs_sim.Job_pool


  module Make (Config : sig
    val name : string
    val lru_share : float
  end) : Rrs_sim.Policy.POLICY = struct
    type t = {
      n : int;
      lru_slots : int; (* distinct colors in the LRU set *)
      edf_slots : int; (* distinct colors in the EDF set *)
      state : Color_state.t;
      se : Instrument.tracker; (* super-epochs, fed incrementally *)
      lru_half : (Types.color, unit) Hashtbl.t;
      edf_half : (Types.color, unit) Hashtbl.t;
      target : Types.color option array; (* reusable reconfigure buffer *)
      mutable evictions : int;
      mutable lru_promotions : int;
    }

    let name = Config.name

    let create ~n ~delta ~bounds =
      if Config.lru_share < 0.0 || Config.lru_share > 1.0 then
        invalid_arg "Lru_edf_core: lru_share out of [0, 1]";
      let distinct = n / 2 in
      let lru_slots =
        int_of_float (Float.round (Config.lru_share *. float_of_int distinct))
      in
      (* Super-epochs (Section 3.4) with the Theorem 1 watermark 2m = n/4
         (at least 1 so the count is defined for tiny n), maintained
         incrementally so no per-round event log accumulates. *)
      let se = Instrument.tracker ~watermark:(max 1 (n / 4)) in
      {
        n;
        lru_slots;
        edf_slots = distinct - lru_slots;
        state =
          Color_state.create
            ~on_timestamp:(fun ~round:_ ~color -> Instrument.track se ~color)
            ~delta ~bounds ();
        se;
        lru_half = Hashtbl.create ~random:false 16;
        edf_half = Hashtbl.create ~random:false 16;
        target = Array.make n None;
        evictions = 0;
        lru_promotions = 0;
      }

    let in_cache t color = Hashtbl.mem t.lru_half color || Hashtbl.mem t.edf_half color

    let on_drop t ~round ~dropped =
      Color_state.on_drop t.state ~round ~dropped ~in_cache:(in_cache t)

    let on_arrival t ~round ~request = Color_state.on_arrival t.state ~round ~request

    let worst_in_edf_half t ~compare =
      Hashtbl.fold
        (fun color () worst ->
          match worst with
          | None -> Some color
          | Some w -> if compare color w > 0 then Some color else worst)
        t.edf_half None

    let reconfigure t (view : Rrs_sim.Policy.view) =
      let eligible = Color_state.eligible_colors t.state in
      (* LRU set: the most recently stamped eligible colors. *)
      let lru =
        Topk.select_list
          ~compare:(Ranking.lru_compare t.state ~round:view.round)
          ~k:t.lru_slots eligible
      in
      Hashtbl.reset t.lru_half;
      List.iter (fun color -> Hashtbl.replace t.lru_half color ()) lru;
      List.iter
        (fun color ->
          if Hashtbl.mem t.edf_half color then begin
            Hashtbl.remove t.edf_half color;
            t.lru_promotions <- t.lru_promotions + 1
          end)
        lru;
      (* EDF set: sticky admission of the best-ranked nonidle non-LRU
         colors, evicting the worst-ranked member when full. *)
      let non_lru =
        List.filter (fun color -> not (Hashtbl.mem t.lru_half color)) eligible
      in
      let compare = Ranking.edf_compare t.state view.pool ~bounds:view.bounds in
      let top = Topk.select_list ~compare ~k:t.edf_slots non_lru in
      List.iter
        (fun color ->
          if Job_pool.nonidle view.pool color && not (in_cache t color) then begin
            Hashtbl.replace t.edf_half color ();
            if Hashtbl.length t.edf_half > t.edf_slots then begin
              match worst_in_edf_half t ~compare with
              | Some worst ->
                  Hashtbl.remove t.edf_half worst;
                  t.evictions <- t.evictions + 1
              | None -> assert false
            end
          end)
        top;
      let want =
        lru @ Hashtbl.fold (fun color () acc -> color :: acc) t.edf_half []
      in
      Cache_layout.place ~into:t.target ~n:t.n ~copies:2 ~current:view.assignment
        ~want ()

    let stats t =
      ("cached", Hashtbl.length t.lru_half + Hashtbl.length t.edf_half)
      :: ("edf_evictions", t.evictions)
      :: ("lru_promotions", t.lru_promotions)
      :: ("super_epochs", Instrument.tracker_count t.se)
      :: Color_state.stats t.state

    module Json = Rrs_sim.Event_sink.Json

    let half_list half =
      Hashtbl.fold (fun color () acc -> color :: acc) half []
      |> List.sort Int.compare

    let serialize t =
      Printf.sprintf
        "{\"lru\":%s,\"edf\":%s,\"evictions\":%d,\"promotions\":%d,\
         \"se_complete\":%d,\"se_seen\":%s,%s}"
        (Json.ints (half_list t.lru_half))
        (Json.ints (half_list t.edf_half))
        t.evictions t.lru_promotions
        (Instrument.tracker_complete t.se)
        (Json.ints (Instrument.tracker_seen t.se))
        (Color_state.serialize_fields t.state)

    let deserialize t blob =
      let fields = Json.parse_fields blob in
      Color_state.deserialize_fields t.state fields;
      t.evictions <- Json.int_field fields "evictions";
      t.lru_promotions <- Json.int_field fields "promotions";
      Instrument.tracker_restore t.se
        ~complete:(Json.int_field fields "se_complete")
        ~seen:(Array.to_list (Json.ints_field fields "se_seen"));
      Hashtbl.reset t.lru_half;
      Hashtbl.reset t.edf_half;
      Array.iter
        (fun color -> Hashtbl.replace t.lru_half color ())
        (Json.ints_field fields "lru");
      Array.iter
        (fun color -> Hashtbl.replace t.edf_half color ())
        (Json.ints_field fields "edf")
  end

  let with_share share : (module Rrs_sim.Policy.POLICY) =
    (module Make (struct
      let name = Printf.sprintf "dlru-edf@%.2f" share
      let lru_share = share
    end))
end

module Policy_lru = struct
  (** Algorithm ΔLRU (Section 3.1.1).

      Reconfiguration scheme: keep the [n/2] eligible colors with the most
      recent timestamps cached (each replicated in two locations), ties
      broken by the consistent color order. Not resource competitive — it
      may pin idle recently-used colors and starve a long-bound color with
      many pending jobs (Appendix A); implemented as a baseline. *)

  module Types = Rrs_sim.Types


  type t = {
    n : int;
    state : Color_state.t;
    cached : (Types.color, unit) Hashtbl.t;
    target : Types.color option array; (* reusable reconfigure buffer *)
  }

  let name = "dlru"

  let create ~n ~delta ~bounds =
    {
      n;
      state = Color_state.create ~delta ~bounds ();
      cached = Hashtbl.create 16;
      target = Array.make n None;
    }

  let on_drop t ~round ~dropped =
    Color_state.on_drop t.state ~round ~dropped ~in_cache:(Hashtbl.mem t.cached)

  let on_arrival t ~round ~request = Color_state.on_arrival t.state ~round ~request

  let reconfigure t (view : Rrs_sim.Policy.view) =
    let capacity = t.n / 2 in
    let want =
      Topk.select_list
        ~compare:(Ranking.lru_compare t.state ~round:view.round)
        ~k:capacity
        (Color_state.eligible_colors t.state)
    in
    Hashtbl.reset t.cached;
    List.iter (fun color -> Hashtbl.replace t.cached color ()) want;
    Cache_layout.place ~into:t.target ~n:t.n ~copies:2 ~current:view.assignment
      ~want ()

  let stats t = ("cached", Hashtbl.length t.cached) :: Color_state.stats t.state

  module Json = Rrs_sim.Event_sink.Json

  let cached_list cached =
    Hashtbl.fold (fun color () acc -> color :: acc) cached []
    |> List.sort Int.compare

  let serialize t =
    Printf.sprintf "{\"cached\":%s,%s}"
      (Json.ints (cached_list t.cached))
      (Color_state.serialize_fields t.state)

  let deserialize t blob =
    let fields = Json.parse_fields blob in
    Color_state.deserialize_fields t.state fields;
    Hashtbl.reset t.cached;
    Array.iter
      (fun color -> Hashtbl.replace t.cached color ())
      (Json.ints_field fields "cached")
end

module Policy_edf = struct
  (** Algorithm EDF (Section 3.1.2).

      Eligible colors are ranked nonidle-first, then by ascending deadline,
      delay bound, and color id. Any nonidle eligible color in the top
      [n/2] rankings that is missing from the cache is brought in; when the
      cache is full, the lowest-ranked cached color is evicted. The cache
      is sticky — colors stay until displaced — which is what the appendix
      B adversary exploits to force thrashing. *)

  module Types = Rrs_sim.Types
  module Job_pool = Rrs_sim.Job_pool


  type t = {
    n : int;
    state : Color_state.t;
    cached : (Types.color, unit) Hashtbl.t;
    target : Types.color option array; (* reusable reconfigure buffer *)
    mutable evictions : int;
  }

  let name = "edf"

  let create ~n ~delta ~bounds =
    {
      n;
      state = Color_state.create ~delta ~bounds ();
      cached = Hashtbl.create ~random:false 16;
      target = Array.make n None;
      evictions = 0;
    }

  let on_drop t ~round ~dropped =
    Color_state.on_drop t.state ~round ~dropped ~in_cache:(Hashtbl.mem t.cached)

  let on_arrival t ~round ~request = Color_state.on_arrival t.state ~round ~request

  let worst_cached t ~compare =
    Hashtbl.fold
      (fun color () worst ->
        match worst with
        | None -> Some color
        | Some w -> if compare color w > 0 then Some color else worst)
      t.cached None

  let reconfigure t (view : Rrs_sim.Policy.view) =
    let capacity = t.n / 2 in
    let compare = Ranking.edf_compare t.state view.pool ~bounds:view.bounds in
    let top =
      Topk.select_list ~compare ~k:capacity (Color_state.eligible_colors t.state)
    in
    List.iter
      (fun color ->
        if Job_pool.nonidle view.pool color && not (Hashtbl.mem t.cached color) then begin
          Hashtbl.replace t.cached color ();
          if Hashtbl.length t.cached > capacity then begin
            match worst_cached t ~compare with
            | Some worst ->
                Hashtbl.remove t.cached worst;
                t.evictions <- t.evictions + 1
            | None -> assert false
          end
        end)
      top;
    let want = Hashtbl.fold (fun color () acc -> color :: acc) t.cached [] in
    Cache_layout.place ~into:t.target ~n:t.n ~copies:2 ~current:view.assignment
      ~want ()

  let stats t =
    ("cached", Hashtbl.length t.cached)
    :: ("evictions", t.evictions)
    :: Color_state.stats t.state

  module Json = Rrs_sim.Event_sink.Json

  let cached_list cached =
    Hashtbl.fold (fun color () acc -> color :: acc) cached []
    |> List.sort Int.compare

  let serialize t =
    Printf.sprintf "{\"cached\":%s,\"evictions\":%d,%s}"
      (Json.ints (cached_list t.cached))
      t.evictions
      (Color_state.serialize_fields t.state)

  let deserialize t blob =
    let fields = Json.parse_fields blob in
    Color_state.deserialize_fields t.state fields;
    t.evictions <- Json.int_field fields "evictions";
    Hashtbl.reset t.cached;
    Array.iter
      (fun color -> Hashtbl.replace t.cached color ())
      (Json.ints_field fields "cached")
end

module Seq_edf = struct
  (** Algorithm Seq-EDF (Section 3.3): the EDF reference without
      replication — all [m] locations cache distinct colors, one copy each.
      DS-Seq-EDF is this policy run at engine speed 2 (two
      reconfiguration+execution mini-rounds per round).

      Unlike the online EDF of Section 3.1.2, this is an {e analysis
      reference}: the paper operates it on the eligible subsequence of the
      input, so it carries no eligibility gating of its own — every color
      is treated as eligible, and colors are ranked nonidle-first, then by
      deadline, bound, id. With gating, Corollary 3.1 (drops(DS-Seq-EDF_m)
      <= drops(Par-EDF_m)) would be false: a color with fewer than [Delta]
      jobs never wraps, so a gated reference would drop jobs Par-EDF
      executes. *)

  module Types = Rrs_sim.Types
  module Job_pool = Rrs_sim.Job_pool


  type t = {
    n : int;
    num_colors : int;
    state : Color_state.t; (* deadlines update at boundaries for all colors *)
    cached : (Types.color, unit) Hashtbl.t;
    target : Types.color option array; (* reusable reconfigure buffer *)
    mutable evictions : int;
  }

  let name = "seq-edf"

  let create ~n ~delta ~bounds =
    {
      n;
      num_colors = Array.length bounds;
      state = Color_state.create ~delta ~bounds ();
      cached = Hashtbl.create ~random:false 16;
      target = Array.make n None;
      evictions = 0;
    }

  let on_drop t ~round ~dropped =
    Color_state.on_drop t.state ~round ~dropped ~in_cache:(Hashtbl.mem t.cached)

  let on_arrival t ~round ~request = Color_state.on_arrival t.state ~round ~request

  let worst_cached t ~compare =
    Hashtbl.fold
      (fun color () worst ->
        match worst with
        | None -> Some color
        | Some w -> if compare color w > 0 then Some color else worst)
      t.cached None

  let reconfigure t (view : Rrs_sim.Policy.view) =
    let capacity = t.n in
    let compare = Ranking.edf_compare t.state view.pool ~bounds:view.bounds in
    (* All colors are candidates: no eligibility gate. *)
    let top =
      Topk.select ~compare ~k:capacity (fun f ->
          for color = 0 to t.num_colors - 1 do
            f color
          done)
    in
    List.iter
      (fun color ->
        if Job_pool.nonidle view.pool color && not (Hashtbl.mem t.cached color) then begin
          Hashtbl.replace t.cached color ();
          if Hashtbl.length t.cached > capacity then begin
            match worst_cached t ~compare with
            | Some worst ->
                Hashtbl.remove t.cached worst;
                t.evictions <- t.evictions + 1
            | None -> assert false
          end
        end)
      top;
    let want = Hashtbl.fold (fun color () acc -> color :: acc) t.cached [] in
    Cache_layout.place ~into:t.target ~n:t.n ~copies:1 ~current:view.assignment
      ~want ()

  let stats t =
    ("cached", Hashtbl.length t.cached)
    :: ("evictions", t.evictions)
    :: Color_state.stats t.state

  module Json = Rrs_sim.Event_sink.Json

  let cached_list cached =
    Hashtbl.fold (fun color () acc -> color :: acc) cached []
    |> List.sort Int.compare

  let serialize t =
    Printf.sprintf "{\"cached\":%s,\"evictions\":%d,%s}"
      (Json.ints (cached_list t.cached))
      t.evictions
      (Color_state.serialize_fields t.state)

  let deserialize t blob =
    let fields = Json.parse_fields blob in
    Color_state.deserialize_fields t.state fields;
    t.evictions <- Json.int_field fields "evictions";
    Hashtbl.reset t.cached;
    Array.iter
      (fun color -> Hashtbl.replace t.cached color ())
      (Json.ints_field fields "cached")
end

module Policy_lru_k = struct
  (** ΔLRU-2: the LRU-K replacement idea of O'Neil et al. (paper related
      work, [12]) transplanted into the ΔLRU setting.

      Identical to {!Policy_lru} except colors are ranked by their
      {e second-to-last} counter-wrap round (ties broken by the last wrap,
      then the consistent color order). LRU-K resists single-burst pollution
      better than LRU, but it is still a pure-recency scheme: it ignores
      idleness and deadlines, so the Appendix A adversary defeats it the
      same way it defeats ΔLRU — the baseline demonstrates that the EDF
      half of ΔLRU-EDF is doing real work. *)

  module Types = Rrs_sim.Types


  type t = {
    n : int;
    state : Color_state.t;
    cached : (Types.color, unit) Hashtbl.t;
    target : Types.color option array; (* reusable reconfigure buffer *)
  }

  let name = "dlru-2"

  let create ~n ~delta ~bounds =
    {
      n;
      state = Color_state.create ~delta ~bounds ();
      cached = Hashtbl.create 16;
      target = Array.make n None;
    }

  let on_drop t ~round ~dropped =
    Color_state.on_drop t.state ~round ~dropped ~in_cache:(Hashtbl.mem t.cached)

  let on_arrival t ~round ~request = Color_state.on_arrival t.state ~round ~request

  let lru2_compare state ~round a b =
    let by_second =
      Int.compare
        (Color_state.timestamp2 state b ~round)
        (Color_state.timestamp2 state a ~round)
    in
    if by_second <> 0 then by_second
    else
      let by_first =
        Int.compare
          (Color_state.timestamp state b ~round)
          (Color_state.timestamp state a ~round)
      in
      if by_first <> 0 then by_first else Int.compare a b

  let reconfigure t (view : Rrs_sim.Policy.view) =
    let capacity = t.n / 2 in
    let want =
      Topk.select_list
        ~compare:(lru2_compare t.state ~round:view.round)
        ~k:capacity
        (Color_state.eligible_colors t.state)
    in
    Hashtbl.reset t.cached;
    List.iter (fun color -> Hashtbl.replace t.cached color ()) want;
    Cache_layout.place ~into:t.target ~n:t.n ~copies:2 ~current:view.assignment
      ~want ()

  let stats t = ("cached", Hashtbl.length t.cached) :: Color_state.stats t.state

  module Json = Rrs_sim.Event_sink.Json

  let cached_list cached =
    Hashtbl.fold (fun color () acc -> color :: acc) cached []
    |> List.sort Int.compare

  let serialize t =
    Printf.sprintf "{\"cached\":%s,%s}"
      (Json.ints (cached_list t.cached))
      (Color_state.serialize_fields t.state)

  let deserialize t blob =
    let fields = Json.parse_fields blob in
    Color_state.deserialize_fields t.state fields;
    Hashtbl.reset t.cached;
    Array.iter
      (fun color -> Hashtbl.replace t.cached color ())
      (Json.ints_field fields "cached")
end

module Policy_lru_edf = Lru_edf_core.Make (struct
  let name = "dlru-edf"
  let lru_share = 0.5
end)

module Landlord = struct
  module Types = Rrs_sim.Types
  module Job_pool = Rrs_sim.Job_pool

  let policy ~drop_costs : (module Rrs_sim.Policy.POLICY) =
    (module struct
      type t = {
        n : int;
        delta : int;
        demand : int array; (* weighted backlog accumulated while uncached *)
        credit : float array; (* Landlord credit of cached colors *)
        cached : (Types.color, unit) Hashtbl.t;
        target : Types.color option array; (* reusable reconfigure buffer *)
        mutable faults : int;
        mutable evictions : int;
        mutable hits : int;
      }

      let name = "landlord"

      let create ~n ~delta ~bounds =
        let num_colors = Array.length bounds in
        if Array.length drop_costs <> num_colors then
          invalid_arg "Landlord.policy: drop_costs length mismatch";
        {
          n;
          delta;
          demand = Array.make num_colors 0;
          credit = Array.make num_colors 0.0;
          cached = Hashtbl.create ~random:false 16;
          target = Array.make n None;
          faults = 0;
          evictions = 0;
          hits = 0;
        }

      let on_drop _ ~round:_ ~dropped:_ = ()

      let on_arrival t ~round:_ ~request =
        List.iter
          (fun (color, count) ->
            if count > 0 then
              if Hashtbl.mem t.cached color then begin
                (* Hit: refresh the landlord credit. *)
                t.credit.(color) <- float_of_int t.delta;
                t.hits <- t.hits + 1
              end
              else
                t.demand.(color) <-
                  min (t.demand.(color) + (drop_costs.(color) * count))
                    (4 * t.delta))
          request

      let evict_for_room t =
        (* The Landlord step: charge everyone the minimum credit, evict the
           zeroed tenants (lowest credit first). *)
        let min_credit =
          Hashtbl.fold (fun color () acc -> Float.min acc t.credit.(color)) t.cached
            infinity
        in
        if Float.is_finite min_credit then begin
          let victims = ref [] in
          Hashtbl.iter
            (fun color () ->
              t.credit.(color) <- t.credit.(color) -. min_credit;
              if t.credit.(color) <= 1e-9 then victims := color :: !victims)
            t.cached;
          match List.sort Int.compare !victims with
          | victim :: _ ->
              Hashtbl.remove t.cached victim;
              t.evictions <- t.evictions + 1
          | [] -> ()
        end

      let reconfigure t (view : Rrs_sim.Policy.view) =
        let capacity = t.n / 2 in
        (* Admit faulting colors: nonidle, uncached, demand >= delta.
           Process by descending demand so the hottest weighted backlog
           wins ties for room. *)
        let faulting =
          Job_pool.nonidle_colors view.pool
          |> List.filter (fun color ->
                 (not (Hashtbl.mem t.cached color)) && t.demand.(color) >= t.delta)
          |> List.sort (fun a b -> Int.compare t.demand.(b) t.demand.(a))
        in
        List.iter
          (fun color ->
            if not (Hashtbl.mem t.cached color) then begin
              let guard = ref (2 * capacity) in
              while Hashtbl.length t.cached >= capacity && !guard > 0 do
                evict_for_room t;
                decr guard
              done;
              if Hashtbl.length t.cached < capacity then begin
                Hashtbl.replace t.cached color ();
                t.credit.(color) <- float_of_int t.delta;
                t.demand.(color) <- 0;
                t.faults <- t.faults + 1
              end
            end)
          faulting;
        let want = Hashtbl.fold (fun color () acc -> color :: acc) t.cached [] in
        Cache_layout.place ~into:t.target ~n:t.n ~copies:2
          ~current:view.assignment ~want ()

      let stats t =
        [
          ("cached", Hashtbl.length t.cached);
          ("faults", t.faults);
          ("evictions", t.evictions);
          ("hits", t.hits);
        ]

      module Json = Rrs_sim.Event_sink.Json

      (* Credits are fractional, so they travel as a comma-joined list of
         hex floats ("%h") inside one JSON string — exact round-trip, no
         decimal rounding. *)
      let serialize t =
        let credits =
          Array.to_list t.credit
          |> List.map (Printf.sprintf "%h")
          |> String.concat ","
        in
        let cached =
          Hashtbl.fold (fun color () acc -> color :: acc) t.cached []
          |> List.sort Int.compare
        in
        Printf.sprintf
          "{\"demand\":%s,\"credit\":%s,\"cached\":%s,\"faults\":%d,\
           \"evictions\":%d,\"hits\":%d}"
          (Json.ints (Array.to_list t.demand))
          (Json.escape credits) (Json.ints cached) t.faults t.evictions t.hits

      let deserialize t blob =
        let fields = Json.parse_fields blob in
        let num_colors = Array.length t.demand in
        let demand = Json.ints_field fields "demand" in
        if Array.length demand <> num_colors then
          raise (Json.Parse_error "field \"demand\": length mismatch");
        let credits =
          match String.split_on_char ',' (Json.str_field fields "credit") with
          | [ "" ] -> [||]
          | parts ->
              Array.of_list
                (List.map
                   (fun part ->
                     match float_of_string_opt part with
                     | Some value -> value
                     | None ->
                         raise (Json.Parse_error "field \"credit\": bad float"))
                   parts)
        in
        if Array.length credits <> num_colors then
          raise (Json.Parse_error "field \"credit\": length mismatch");
        Array.blit demand 0 t.demand 0 num_colors;
        Array.blit credits 0 t.credit 0 num_colors;
        t.faults <- Json.int_field fields "faults";
        t.evictions <- Json.int_field fields "evictions";
        t.hits <- Json.int_field fields "hits";
        Hashtbl.reset t.cached;
        Array.iter
          (fun color -> Hashtbl.replace t.cached color ())
          (Json.ints_field fields "cached")
    end)
end

(* The registry order of [Rrs_core.Policies.all]. *)
let all : (module Rrs_sim.Policy.POLICY) list =
  [
    (module Policy_lru);
    (module Policy_edf);
    (module Policy_lru_edf);
    (module Seq_edf);
  ]
