type event = Event_sink.event =
  | Reconfig of { round : int; mini_round : int; location : int;
                  previous : Types.color option; next : Types.color }
  | Drop of { round : int; color : Types.color; count : int }
  | Execute of { round : int; mini_round : int; location : int;
                 color : Types.color; deadline : int }
  | Crash of { round : int; location : int }
  | Repair of { round : int; location : int }
  | Reconfig_failed of { round : int; mini_round : int; location : int;
                         previous : Types.color option;
                         attempted : Types.color }

type t = {
  delta : int;
  sink : Event_sink.t;
  mutable reconfigs : int;
  mutable failed : int;
  mutable drops : int;
  mutable execs : int;
}

let create ?(record_events = true) ?sink ~delta () =
  let sink =
    match sink with
    | Some sink -> sink
    | None -> if record_events then Event_sink.memory () else Event_sink.Null
  in
  { delta; sink; reconfigs = 0; failed = 0; drops = 0; execs = 0 }

let sink t = t.sink

(* Events are built only for a sink that keeps them: a [Null] batch run
   allocates nothing per event. *)
let record_reconfig t ~round ~mini_round ~location ~previous ~next =
  t.reconfigs <- t.reconfigs + 1;
  match t.sink with
  | Event_sink.Null -> ()
  | sink ->
      Event_sink.record sink (Reconfig { round; mini_round; location; previous; next })

let record_failed_reconfig t ~round ~mini_round ~location ~previous ~attempted =
  (* A failed Configure still pays Delta, so it counts as a reconfig. *)
  t.reconfigs <- t.reconfigs + 1;
  t.failed <- t.failed + 1;
  Event_sink.record t.sink
    (Reconfig_failed { round; mini_round; location; previous; attempted })

let record_drop t ~round ~color ~count =
  if count < 0 then invalid_arg "Ledger.record_drop: negative count";
  t.drops <- t.drops + count;
  match t.sink with
  | Event_sink.Null -> ()
  | sink -> if count > 0 then Event_sink.record sink (Drop { round; color; count })

let record_execute t ~round ~mini_round ~location ~color ~deadline =
  t.execs <- t.execs + 1;
  match t.sink with
  | Event_sink.Null -> ()
  | sink -> Event_sink.record sink (Execute { round; mini_round; location; color; deadline })

let record_crash t ~round ~location =
  Event_sink.record t.sink (Crash { round; location })

let record_repair t ~round ~location =
  Event_sink.record t.sink (Repair { round; location })

let seed t ~reconfigs ~failed ~drops ~execs =
  t.reconfigs <- reconfigs;
  t.failed <- failed;
  t.drops <- drops;
  t.execs <- execs

let reconfig_count t = t.reconfigs
let failed_reconfig_count t = t.failed
let drop_count t = t.drops
let exec_count t = t.execs
let reconfig_cost t = t.delta * t.reconfigs
let total_cost t = reconfig_cost t + t.drops
let events t = Event_sink.events t.sink

let pp_summary_counts ?(failed = 0) ppf ~delta ~reconfigs ~drops ~execs =
  if failed = 0 then
    Format.fprintf ppf
      "cost=%d (reconfig=%d x delta=%d -> %d, drops=%d) executed=%d"
      ((delta * reconfigs) + drops)
      reconfigs delta (delta * reconfigs) drops execs
  else
    Format.fprintf ppf
      "cost=%d (reconfig=%d x delta=%d -> %d, of which %d failed, drops=%d) \
       executed=%d"
      ((delta * reconfigs) + drops)
      reconfigs delta (delta * reconfigs) failed drops execs

let pp_summary ppf t =
  pp_summary_counts ~failed:t.failed ppf ~delta:t.delta ~reconfigs:t.reconfigs
    ~drops:t.drops ~execs:t.execs
