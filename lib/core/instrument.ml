(** Analysis instrumentation helpers (Sections 3.2 and 3.4).

    The lemma-level experiments need quantities that live outside any one
    policy: super-epoch counts derived from timestamp-update events, and
    convenient access to the counters policies report via [stats]. *)

(** Look up a counter in a policy's stats list (0 when absent). *)
let stat stats key =
  match List.assoc_opt key stats with Some value -> value | None -> 0

(** Epochs including the trailing incomplete ones (Section 3.2's
    [numEpochs]). *)
let num_epochs stats = stat stats "epochs"

let eligible_drops stats = stat stats "eligible_drops"
let ineligible_drops stats = stat stats "ineligible_drops"
let wraps stats = stat stats "wraps"

(** Incremental super-epoch state (Section 3.4): a super-epoch ends the
    moment at least [watermark] distinct colors have updated their
    timestamps since it started; the trailing partial super-epoch counts
    when nonempty. For Theorem 1 the watermark is [2m = n/4]. Fed one
    event at a time, the state does not grow with the events tracked —
    unlike the full event log. *)
type tracker = {
  watermark : int;
  (* The colors seen in the current super-epoch: a dense set over the
     colors tracked so far, grown when a larger color arrives, so a
     tracked event costs no hashing and no allocation. *)
  mutable member : bool array;
  mutable seen : int array; (* [0 .. count - 1], in arrival order *)
  mutable count : int;
  mutable complete : int;
}

let make ~watermark ~universe =
  if watermark < 1 then invalid_arg "Instrument.tracker: watermark < 1";
  {
    watermark;
    member = Array.make universe false;
    seen = Array.make universe 0;
    count = 0;
    complete = 0;
  }

let tracker ~watermark = make ~watermark ~universe:0

let grow t color =
  if color < 0 then invalid_arg (Printf.sprintf "Instrument.tracker: color %d < 0" color);
  let size = max (color + 1) (2 * Array.length t.member) in
  let member = Array.make size false and seen = Array.make size 0 in
  Array.blit t.member 0 member 0 (Array.length t.member);
  Array.blit t.seen 0 seen 0 t.count;
  t.member <- member;
  t.seen <- seen

let reset t =
  for i = 0 to t.count - 1 do
    t.member.(t.seen.(i)) <- false
  done;
  t.count <- 0

let add t color =
  if color < 0 || color >= Array.length t.member then grow t color;
  if not t.member.(color) then begin
    t.member.(color) <- true;
    t.seen.(t.count) <- color;
    t.count <- t.count + 1
  end

let track t ~color =
  let before = t.count in
  add t color;
  if t.count > before && t.count >= t.watermark then begin
    t.complete <- t.complete + 1;
    reset t
  end

let tracker_count t = t.complete + (if t.count > 0 then 1 else 0)

(* State accessors for policy serialization. *)
let tracker_complete t = t.complete

let tracker_seen t = List.sort Int.compare (List.init t.count (fun i -> t.seen.(i)))

let tracker_restore t ~complete ~seen =
  t.complete <- complete;
  reset t;
  List.iter (add t) seen

(** Count super-epochs from a full chronological event log (the batch
    form of {!tracker}). *)
let super_epochs ~watermark events =
  if watermark < 1 then invalid_arg "Instrument.super_epochs: watermark < 1";
  let universe = List.fold_left (fun top (_round, color) -> max top (color + 1)) 0 events in
  let t = make ~watermark ~universe in
  List.iter (fun (_round, color) -> track t ~color) events;
  tracker_count t

(** The Lemma 3.3 bound: reconfiguration cost is at most
    [4 * numEpochs * delta]. *)
let lemma_3_3_bound ~delta stats = 4 * num_epochs stats * delta

(** The Lemma 3.4 bound: ineligible drop cost is at most
    [numEpochs * delta]. *)
let lemma_3_4_bound ~delta stats = num_epochs stats * delta
