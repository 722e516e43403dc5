(** Algorithm EDF (Section 3.1.2).

    Eligible colors are ranked nonidle-first, then by ascending deadline,
    delay bound, and color id. Any nonidle eligible color in the top
    [n/2] rankings that is missing from the cache is brought in; when the
    cache is full, the lowest-ranked cached color is evicted. The cache
    is sticky — colors stay until displaced — which is what the appendix
    B adversary exploits to force thrashing. *)

module Types = Rrs_sim.Types

(* The sticky EDF cache, shared with {!Seq_edf}: {!Ranking.admission}
   over the deadline order of the eligible colors when gated, of every
   color when not. *)
module Make (S : sig
  val name : string
  val slots : n:int -> int (* distinct cached colors *)
  val copies : int
  val gated : bool (* candidates must be eligible *)
end) =
struct
  type t = {
    state : Color_state.t;
    cached : Sticky_set.t;
    admission : Ranking.admission;
    layout : Cache_layout.t;
    in_cache : Types.color -> bool;
    order : (Types.color -> unit) -> unit;
    mutable restored : bool; (* [cached] was replaced since the last round *)
    mutable evictions : int;
  }

  let name = S.name
  let candidates : Color_state.order = if S.gated then Deadline else Deadline_all

  let create ~n ~delta ~bounds =
    let num_colors = Array.length bounds in
    let cached = Sticky_set.create ~num_colors in
    let state = Color_state.create ~orders:[ candidates ] ~delta ~bounds () in
    {
      state;
      cached;
      admission =
        Ranking.admission state candidates cached ~capacity:(S.slots ~n) ~bounds
          ~skip:(fun _ -> false);
      layout = Cache_layout.create ~n ~copies:S.copies ~num_colors;
      in_cache = Sticky_set.mem cached;
      order = Sticky_set.iter_placement_order cached;
      restored = false;
      evictions = 0;
    }

  let on_drop t ~round ~dropped =
    Color_state.on_drop t.state ~round ~dropped ~in_cache:t.in_cache

  let on_arrival t ~round ~request =
    (match request with [] -> () | _ :: _ -> Ranking.invalidate t.admission);
    Color_state.on_arrival t.state ~round ~request

  let reconfigure t (view : Rrs_sim.Policy.view) =
    t.evictions <- t.evictions + Ranking.admit t.admission view.pool;
    if t.restored || Ranking.admitted t.admission > 0 then begin
      t.restored <- false;
      for i = 0 to Sticky_set.cardinal t.cached - 1 do
        Cache_layout.want t.layout (Sticky_set.nth t.cached i)
      done
    end
    else Cache_layout.rewant t.layout;
    Cache_layout.assign t.layout ~current:view.assignment ~order:t.order

  let stats t =
    ("cached", Sticky_set.cardinal t.cached)
    :: ("evictions", t.evictions)
    :: Color_state.stats t.state

  module Json = Rrs_sim.Event_sink.Json

  let serialize t =
    Printf.sprintf "{\"cached\":%s,\"evictions\":%d,%s}"
      (Json.ints (Sticky_set.to_sorted_list t.cached))
      t.evictions
      (Color_state.serialize_fields t.state)

  let deserialize t blob =
    let fields = Json.parse_fields blob in
    Color_state.deserialize_fields t.state fields;
    t.evictions <- Json.int_field fields "evictions";
    Sticky_set.restore t.cached (Json.ints_field fields "cached");
    t.restored <- true;
    Ranking.invalidate t.admission
end

include Make (struct
  let name = "edf"
  let slots ~n = n / 2
  let copies = 2
  let gated = true
end)
