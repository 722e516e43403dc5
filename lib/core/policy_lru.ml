(** Algorithm ΔLRU (Section 3.1.1).

    Reconfiguration scheme: keep the [n/2] eligible colors with the most
    recent timestamps cached (each replicated in two locations), ties
    broken by the consistent color order. Not resource competitive — it
    may pin idle recently-used colors and starve a long-bound color with
    many pending jobs (Appendix A); implemented as a baseline. *)

module Types = Rrs_sim.Types
module Dense_set = Rrs_ds.Dense_set

(* Pure-recency caching, shared with {!Policy_lru_k}: keep the [n/2]
   eligible colors that rank best in [R.order] cached, placed in rank
   order. [Color_state] keeps that order sorted as events happen, so a
   round reads the first [n/2] colors. *)
module Recency (R : sig
  val name : string
  val order : Color_state.order
end) =
struct
  type t = {
    state : Color_state.t;
    capacity : int;
    cached : Dense_set.t;
    layout : Cache_layout.t;
    in_cache : Types.color -> bool;
    order : (Types.color -> unit) -> unit; (* placement order: rank order *)
    (* The cached set is a prefix of the rank order: it is recomputed
       only when the order or the eligible count moved since [version],
       [eligible]. *)
    mutable version : int;
    mutable eligible : int;
  }

  let name = R.name

  let create ~n ~delta ~bounds =
    let num_colors = Array.length bounds in
    let state = Color_state.create ~orders:[ R.order ] ~delta ~bounds () in
    let capacity = n / 2 in
    let cached = Dense_set.create ~universe:num_colors in
    {
      state;
      capacity;
      cached;
      layout = Cache_layout.create ~n ~copies:2 ~num_colors;
      in_cache = Dense_set.mem cached;
      order =
        (fun f ->
          for i = 0 to min capacity (Color_state.eligible_count state) - 1 do
            f (Color_state.ranked state R.order i)
          done);
      version = -1;
      eligible = -1;
    }

  let on_drop t ~round ~dropped =
    Color_state.on_drop t.state ~round ~dropped ~in_cache:t.in_cache

  let on_arrival t ~round ~request =
    Color_state.on_arrival t.state ~round ~request

  let reconfigure t (view : Rrs_sim.Policy.view) =
    let state = t.state in
    Color_state.sync_keys state ~round:view.round;
    let version = Color_state.version state R.order
    and eligible = Color_state.eligible_count state in
    if version <> t.version || eligible <> t.eligible then begin
      t.version <- version;
      t.eligible <- eligible;
      Dense_set.clear t.cached;
      for i = 0 to min t.capacity eligible - 1 do
        let color = Color_state.ranked state R.order i in
        Dense_set.add t.cached color;
        Cache_layout.want t.layout color
      done
    end
    else Cache_layout.rewant t.layout;
    Cache_layout.assign t.layout ~current:view.assignment ~order:t.order

  let stats t = ("cached", Dense_set.cardinal t.cached) :: Color_state.stats t.state

  module Json = Rrs_sim.Event_sink.Json

  let serialize t =
    Printf.sprintf "{\"cached\":%s,%s}"
      (Json.ints (Dense_set.to_sorted_list t.cached))
      (Color_state.serialize_fields t.state)

  let deserialize t blob =
    let fields = Json.parse_fields blob in
    Color_state.deserialize_fields t.state fields;
    Dense_set.clear t.cached;
    Array.iter (Dense_set.add t.cached) (Json.ints_field fields "cached");
    t.version <- -1
end

include Recency (struct
  let name = "dlru"
  let order = Color_state.Recency
end)
