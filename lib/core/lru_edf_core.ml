module Types = Rrs_sim.Types
module Dense_set = Rrs_ds.Dense_set

module Make (Config : sig
  val name : string
  val lru_share : float
end) : Rrs_sim.Policy.POLICY = struct
  type t = {
    lru_slots : int; (* distinct colors in the LRU set *)
    state : Color_state.t;
    se : Instrument.tracker; (* super-epochs, fed incrementally *)
    lru_half : Dense_set.t;
    edf_half : Sticky_set.t;
    admission : Ranking.admission; (* of non-LRU colors into [edf_half] *)
    layout : Cache_layout.t;
    in_cache : Types.color -> bool;
    order : (Types.color -> unit) -> unit;
    (* The LRU set is a prefix of the recency order: it is rebuilt only
       when the order or the eligible count moved since [lru_version],
       [lru_eligible]. *)
    mutable lru_version : int;
    mutable lru_eligible : int;
    mutable evictions : int;
    mutable lru_promotions : int;
  }

  let name = Config.name

  let create ~n ~delta ~bounds =
    if Config.lru_share < 0.0 || Config.lru_share > 1.0 then
      invalid_arg "Lru_edf_core: lru_share out of [0, 1]";
    let num_colors = Array.length bounds in
    let distinct = n / 2 in
    let lru_slots =
      int_of_float (Float.round (Config.lru_share *. float_of_int distinct))
    in
    (* Super-epochs (Section 3.4) with the Theorem 1 watermark 2m = n/4
       (at least 1 so the count is defined for tiny n), maintained
       incrementally so no per-round event log accumulates. *)
    let se = Instrument.tracker ~watermark:(max 1 (n / 4)) in
    let state =
      Color_state.create
        ~on_timestamp:(fun ~round:_ ~color -> Instrument.track se ~color)
        ~orders:[ Recency; Deadline ] ~delta ~bounds ()
    in
    let lru_half = Dense_set.create ~universe:num_colors in
    let edf_half = Sticky_set.create ~num_colors in
    {
      lru_slots;
      state;
      se;
      lru_half;
      edf_half;
      (* EDF set: sticky admission of the best-ranked nonidle non-LRU
         colors, evicting the worst-ranked member when full. *)
      admission =
        Ranking.admission state Deadline edf_half ~capacity:(distinct - lru_slots)
          ~bounds ~skip:(Dense_set.mem lru_half);
      layout = Cache_layout.create ~n ~copies:2 ~num_colors;
      in_cache =
        (fun color -> Dense_set.mem lru_half color || Sticky_set.mem edf_half color);
      (* Placement order: the LRU set in rank order, then the EDF half in
         its order of record. *)
      order =
        (fun f ->
          for i = 0 to Dense_set.cardinal lru_half - 1 do
            f (Color_state.ranked state Recency i)
          done;
          Sticky_set.iter_placement_order edf_half f);
      lru_version = -1;
      lru_eligible = -1;
      evictions = 0;
      lru_promotions = 0;
    }

  let on_drop t ~round ~dropped =
    Color_state.on_drop t.state ~round ~dropped ~in_cache:t.in_cache

  let on_arrival t ~round ~request =
    (match request with [] -> () | _ :: _ -> Ranking.invalidate t.admission);
    Color_state.on_arrival t.state ~round ~request

  let reconfigure t (view : Rrs_sim.Policy.view) =
    let state = t.state in
    Color_state.sync_keys state ~round:view.round;
    (* LRU set: the most recently stamped eligible colors. *)
    let version = Color_state.version state Recency
    and eligible = Color_state.eligible_count state in
    let rebuild = version <> t.lru_version || eligible <> t.lru_eligible in
    if rebuild then begin
      t.lru_version <- version;
      t.lru_eligible <- eligible;
      Dense_set.clear t.lru_half;
      for i = 0 to min t.lru_slots eligible - 1 do
        let color = Color_state.ranked state Recency i in
        Dense_set.add t.lru_half color;
        if Sticky_set.mem t.edf_half color then begin
          Sticky_set.remove t.edf_half color;
          t.lru_promotions <- t.lru_promotions + 1
        end
      done;
      Ranking.invalidate t.admission
    end;
    t.evictions <- t.evictions + Ranking.admit t.admission view.pool;
    if rebuild || Ranking.admitted t.admission > 0 then begin
      for i = 0 to Dense_set.cardinal t.lru_half - 1 do
        Cache_layout.want t.layout (Dense_set.nth t.lru_half i)
      done;
      for i = 0 to Sticky_set.cardinal t.edf_half - 1 do
        Cache_layout.want t.layout (Sticky_set.nth t.edf_half i)
      done
    end
    else Cache_layout.rewant t.layout;
    Cache_layout.assign t.layout ~current:view.assignment ~order:t.order

  let stats t =
    ("cached", Dense_set.cardinal t.lru_half + Sticky_set.cardinal t.edf_half)
    :: ("edf_evictions", t.evictions)
    :: ("lru_promotions", t.lru_promotions)
    :: ("super_epochs", Instrument.tracker_count t.se)
    :: Color_state.stats t.state

  module Json = Rrs_sim.Event_sink.Json

  let serialize t =
    Printf.sprintf
      "{\"lru\":%s,\"edf\":%s,\"evictions\":%d,\"promotions\":%d,\
       \"se_complete\":%d,\"se_seen\":%s,%s}"
      (Json.ints (Dense_set.to_sorted_list t.lru_half))
      (Json.ints (Sticky_set.to_sorted_list t.edf_half))
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
    Dense_set.clear t.lru_half;
    Array.iter (Dense_set.add t.lru_half) (Json.ints_field fields "lru");
    t.lru_version <- -1;
    Ranking.invalidate t.admission;
    Sticky_set.restore t.edf_half (Json.ints_field fields "edf")
end

let with_share share : (module Rrs_sim.Policy.POLICY) =
  (module Make (struct
    let name = Printf.sprintf "dlru-edf@%.2f" share
    let lru_share = share
  end))
