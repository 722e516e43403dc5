type 'a t = {
  mutable buckets : 'a list array; (* bucket i holds time [base + offset] with
                                      [(base + offset) mod capacity = i],
                                      values stored in reverse arrival order *)
  mutable time : int;
  mutable count : int;
}

let create ?(horizon = 64) () =
  { buckets = Array.make (max horizon 1) []; time = 0; count = 0 }

let now wheel = wheel.time
let length wheel = wheel.count
let capacity wheel = Array.length wheel.buckets

(* Buckets hold immutable lists, so a shallow array copy gives two wheels
   that share bucket spines but never observe each other's mutations
   (every mutation replaces a whole bucket). *)
let copy wheel =
  { buckets = Array.copy wheel.buckets; time = wheel.time; count = wheel.count }

(* Grow so that [time .. time + needed] fits without aliasing: rebuild the
   bucket array with at least double the span. *)
let grow wheel needed =
  let old = wheel.buckets in
  let old_capacity = Array.length old in
  let new_capacity = max (2 * old_capacity) (needed + 1) in
  let fresh = Array.make new_capacity [] in
  (* Re-slot every pending value. Times in the old wheel lie in
     [time, time + old_capacity); recover each absolute time from its
     slot index. *)
  for i = 0 to old_capacity - 1 do
    match old.(i) with
    | [] -> ()
    | values ->
        let offset = (i - (wheel.time mod old_capacity) + old_capacity) mod old_capacity in
        let t = wheel.time + offset in
        fresh.(t mod new_capacity) <- values
  done;
  wheel.buckets <- fresh

let add wheel ~time value =
  if time < wheel.time then
    invalid_arg
      (Printf.sprintf "Timing_wheel.add: time %d is before now %d" time wheel.time);
  if time - wheel.time >= capacity wheel then grow wheel (time - wheel.time);
  let slot = time mod capacity wheel in
  wheel.buckets.(slot) <- value :: wheel.buckets.(slot);
  wheel.count <- wheel.count + 1

(* A bucket holds its values newest first: fire them oldest first, with
   no reversed copy (buckets are short). *)
let rec fire_in_order wheel f time = function
  | [] -> ()
  | v :: older ->
      fire_in_order wheel f time older;
      wheel.count <- wheel.count - 1;
      f time v

let advance wheel ~time f =
  if time < wheel.time then
    invalid_arg
      (Printf.sprintf "Timing_wheel.advance: time %d is before now %d" time wheel.time);
  (* Fast path: with nothing scheduled there is no slot to drain, so the
     clock can jump straight to [time]. This also terminates the walk as
     soon as the last pending value fires mid-advance. *)
  while wheel.time < time && wheel.count > 0 do
    let slot = wheel.time mod capacity wheel in
    (match wheel.buckets.(slot) with
    | [] -> ()
    | values ->
        wheel.buckets.(slot) <- [];
        fire_in_order wheel f wheel.time values);
    wheel.time <- wheel.time + 1
  done;
  if wheel.time < time then wheel.time <- time

let pending_at wheel ~time =
  if time < wheel.time || time - wheel.time >= capacity wheel then []
  else List.rev wheel.buckets.(time mod capacity wheel)
