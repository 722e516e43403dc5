(* Serving-layer admission gate. See admission.mli. *)

module Capacity = Rrs_analysis.Capacity
module Demand = Rrs_workload.Demand

type mode = Off | Warn | Enforce

let mode_of_string = function
  | "off" -> Ok Off
  | "warn" -> Ok Warn
  | "enforce" -> Ok Enforce
  | other ->
      Error
        (Printf.sprintf "unknown admission mode %S (known: off, warn, enforce)"
           other)

let mode_to_string = function Off -> "off" | Warn -> "warn" | Enforce -> "enforce"

type reject = {
  r_color : int;
  r_demand : int;
  r_supply : int;
  r_message : string;
}

let validate_decl ~colors (decl : Wire.decl) =
  let rates = Array.length decl.d_rates in
  let bursts = Array.length decl.d_bursts in
  if rates <> colors then
    Error
      (Printf.sprintf "declaration has %d rates for %d colors" rates colors)
  else if decl.d_den < 1 then
    Error (Printf.sprintf "declaration rate_den %d < 1" decl.d_den)
  else if bursts <> 0 && bursts <> colors then
    Error
      (Printf.sprintf "declaration has %d bursts for %d colors" bursts colors)
  else if Array.exists (fun r -> r < 0) decl.d_rates then
    Error "declaration has a negative rate"
  else if Array.exists (fun b -> b < 0) decl.d_bursts then
    Error "declaration has a negative burst"
  else Ok ()

let ceil_div a b = (a + b - 1) / b

let decl_mjpr (decl : Wire.decl) =
  Array.fold_left
    (fun acc rate ->
      acc + if rate = 0 then 0 else ceil_div (1000 * rate) decl.d_den)
    0 decl.d_rates

let burst_of (decl : Wire.decl) color =
  if Array.length decl.d_bursts = 0 then 0 else decl.d_bursts.(color)

let spec_of_decl ~delta ~bounds ~speed (decl : Wire.decl) =
  Demand.make ~delta ~speed
    (List.init (Array.length bounds) (fun color ->
         {
           Demand.color;
           bound = bounds.(color);
           rate_num = decl.d_rates.(color);
           rate_den = decl.d_den;
           burst = burst_of decl color;
         }))

let check_session ~session ~delta ~bounds ~n ~speed decl =
  match spec_of_decl ~delta ~bounds ~speed decl with
  | Error _ ->
      (* Not analyzable (bad delta/speed/bounds): let session creation
         produce the config error instead of a capacity verdict. *)
      Ok ()
  | Ok spec -> (
      match Capacity.check ~n spec with
      | Capacity.Fits _ -> Ok ()
      | Capacity.Overcommitted { required; available; binding; _ } ->
          let e = spec.Demand.entries.(binding) in
          Error
            {
              r_color = binding;
              r_demand = required;
              r_supply = available;
              r_message =
                Printf.sprintf
                  "session %S: declared demand needs %d resources but the \
                   session has n=%d (binding color %d: rate %d/%d jobs/round, \
                   burst %d, bound %d)"
                  session required available binding e.Demand.rate_num
                  e.Demand.rate_den e.Demand.burst e.Demand.bound;
            }
      | Capacity.Unsatisfiable { color; reason } ->
          Error
            {
              r_color = color;
              r_demand = decl.d_rates.(color);
              r_supply = 0;
              r_message =
                Printf.sprintf "session %S: color %d unsatisfiable: %s" session
                  color reason;
            })

type t = {
  gate_mode : mode;
  supply : int; (* mjpr *)
  demands : (string, int) Hashtbl.t; (* session -> admitted mjpr *)
  mutable demand : int; (* sum of [demands] *)
  mutable rejected_opens : int;
  mutable policed_feeds : int;
  mutable policed_jobs : int;
}

let create ~mode ~supply_mjpr =
  {
    gate_mode = mode;
    supply = supply_mjpr;
    demands = Hashtbl.create 64;
    demand = 0;
    rejected_opens = 0;
    policed_feeds = 0;
    policed_jobs = 0;
  }

let mode t = t.gate_mode
let supply_mjpr t = t.supply
let demand_mjpr t = t.demand
let sessions t = Hashtbl.length t.demands

let force_admit t ~session ~mjpr =
  let previous = Option.value (Hashtbl.find_opt t.demands session) ~default:0 in
  Hashtbl.replace t.demands session mjpr;
  t.demand <- t.demand - previous + mjpr

let try_admit t ~session ~mjpr =
  let previous = Option.value (Hashtbl.find_opt t.demands session) ~default:0 in
  let next = t.demand - previous + mjpr in
  if next > t.supply then
    Error
      {
        r_color = -1;
        r_demand = next;
        r_supply = t.supply;
        r_message =
          Printf.sprintf
            "aggregate: admitting %d mjobs/round for session %S would raise \
             deployment demand to %d against a supply of %d mjobs/round"
            mjpr session next t.supply;
      }
  else Ok (force_admit t ~session ~mjpr)

let release t ~session =
  match Hashtbl.find_opt t.demands session with
  | None -> ()
  | Some mjpr ->
      Hashtbl.remove t.demands session;
      t.demand <- t.demand - mjpr

let note_rejected_open t = t.rejected_opens <- t.rejected_opens + 1

let note_policed t ~jobs =
  t.policed_feeds <- t.policed_feeds + 1;
  t.policed_jobs <- t.policed_jobs + jobs

let rejected_opens t = t.rejected_opens
let policed_feeds t = t.policed_feeds
let policed_jobs t = t.policed_jobs
