(** Algorithm EDF (Section 3.1.2).

    Eligible colors are ranked nonidle-first, then by ascending deadline,
    delay bound, and color id. Any nonidle eligible color in the top
    [n/2] rankings that is missing from the cache is brought in; when the
    cache is full, the lowest-ranked cached color is evicted. The cache
    is sticky — colors stay until displaced — which is what the appendix
    B adversary exploits to force thrashing. *)

module Types = Rrs_sim.Types
module Job_pool = Rrs_sim.Job_pool

(* The sticky EDF cache, shared with {!Seq_edf}. Only nonidle colors are
   ever admitted, and nonidle colors rank before idle ones, so the
   admissions of a round are the first [slots] nonidle candidates in
   deadline order, which [Color_state] keeps sorted: the eligible colors
   when gated, every color when not. *)
module Make (S : sig
  val name : string
  val slots : n:int -> int (* distinct cached colors *)
  val copies : int
  val gated : bool (* candidates must be eligible *)
end) =
struct
  type t = {
    state : Color_state.t;
    capacity : int;
    cached : Sticky_set.t;
    layout : Cache_layout.t;
    in_cache : Types.color -> bool;
    order : (Types.color -> unit) -> unit;
    mutable evictions : int;
  }

  let name = S.name
  let candidates : Color_state.order = if S.gated then Deadline else Deadline_all

  let create ~n ~delta ~bounds =
    let num_colors = Array.length bounds in
    let cached = Sticky_set.create ~num_colors in
    {
      state = Color_state.create ~orders:[ candidates ] ~delta ~bounds ();
      capacity = S.slots ~n;
      cached;
      layout = Cache_layout.create ~n ~copies:S.copies ~num_colors;
      in_cache = Sticky_set.mem cached;
      order = Sticky_set.iter_placement_order cached;
      evictions = 0;
    }

  let on_drop t ~round ~dropped =
    Color_state.on_drop t.state ~round ~dropped ~in_cache:t.in_cache

  let on_arrival t ~round ~request =
    Color_state.on_arrival t.state ~round ~request

  let reconfigure t (view : Rrs_sim.Policy.view) =
    let state = t.state in
    let count =
      if S.gated then Color_state.eligible_count state else Color_state.num_colors state
    in
    let taken = ref 0 and i = ref 0 in
    while !taken < t.capacity && !i < count do
      let color = Color_state.ranked state candidates !i in
      incr i;
      if Job_pool.nonidle view.pool color then begin
        incr taken;
        if
          (not (Sticky_set.mem t.cached color))
          && Ranking.edf_admit state view.pool ~bounds:view.bounds t.cached
               ~capacity:t.capacity color
        then t.evictions <- t.evictions + 1
      end
    done;
    for i = 0 to Sticky_set.cardinal t.cached - 1 do
      Cache_layout.want t.layout (Sticky_set.nth t.cached i)
    done;
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
    Sticky_set.restore t.cached (Json.ints_field fields "cached")
end

include Make (struct
  let name = "edf"
  let slots ~n = n / 2
  let copies = 2
  let gated = true
end)
