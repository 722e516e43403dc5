module Timing_wheel = Rrs_ds.Timing_wheel

(* The pending jobs of one color as a FIFO of runs [(deadline, count)],
   ascending by deadline, over a circular buffer (capacity a power of
   two). Per color, deadlines arrive in nondecreasing order — every
   arrival is [round + bound] — so [push] appends to the back (or grows
   the back run); execution and expiry consume the front. *)
type runs = {
  mutable deadline : int array;
  mutable count : int array;
  mutable head : int;
  mutable len : int;
}

type t = {
  runs : runs array;
  pending : int array; (* jobs per color *)
  mutable total : int;
  wheel : Types.color Timing_wheel.t; (* colors that may expire at each time *)
  (* Drop-phase scratch, reused every round. *)
  dropped_count : int array; (* per color, this phase *)
  dropped_colors : int array;
  mutable dropped_len : int;
  expire : int -> Types.color -> unit; (* [expire_at] of this pool *)
}

let new_runs () =
  { deadline = Array.make 4 0; count = Array.make 4 0; head = 0; len = 0 }

let slot r i = (r.head + i) land (Array.length r.deadline - 1)

let grow r =
  let capacity = Array.length r.deadline in
  let deadline = Array.make (2 * capacity) 0 and count = Array.make (2 * capacity) 0 in
  for i = 0 to r.len - 1 do
    deadline.(i) <- r.deadline.(slot r i);
    count.(i) <- r.count.(slot r i)
  done;
  r.deadline <- deadline;
  r.count <- count;
  r.head <- 0

(* Adds [count] jobs at [deadline]; returns whether a new run was made
   (no pending job of the color had that deadline). An out-of-order
   deadline is inserted at its sorted position. *)
let push r ~deadline ~count =
  let back = r.len - 1 in
  if back >= 0 && r.deadline.(slot r back) = deadline then begin
    r.count.(slot r back) <- r.count.(slot r back) + count;
    false
  end
  else begin
    let position = ref r.len in
    while !position > 0 && r.deadline.(slot r (!position - 1)) >= deadline do
      decr position
    done;
    if !position < r.len && r.deadline.(slot r !position) = deadline then begin
      r.count.(slot r !position) <- r.count.(slot r !position) + count;
      false
    end
    else begin
      if r.len = Array.length r.deadline then grow r;
      for i = r.len downto !position + 1 do
        r.deadline.(slot r i) <- r.deadline.(slot r (i - 1));
        r.count.(slot r i) <- r.count.(slot r (i - 1))
      done;
      r.deadline.(slot r !position) <- deadline;
      r.count.(slot r !position) <- count;
      r.len <- r.len + 1;
      true
    end
  end

(* Removes [k] jobs from the front run. *)
let take_front r k =
  let front = slot r 0 in
  r.count.(front) <- r.count.(front) - k;
  if r.count.(front) = 0 then begin
    r.head <- slot r 1;
    r.len <- r.len - 1
  end

let remove_jobs t color k =
  t.pending.(color) <- t.pending.(color) - k;
  t.total <- t.total - k

let expire_at t time color =
  let r = t.runs.(color) in
  if r.len > 0 && r.deadline.(slot r 0) = time then begin
    let k = r.count.(slot r 0) in
    take_front r k;
    remove_jobs t color k;
    if t.dropped_count.(color) = 0 then begin
      t.dropped_colors.(t.dropped_len) <- color;
      t.dropped_len <- t.dropped_len + 1
    end;
    t.dropped_count.(color) <- t.dropped_count.(color) + k
  end

let make ~runs ~pending ~total ~wheel =
  let num_colors = Array.length runs in
  let rec t =
    {
      runs;
      pending;
      total;
      wheel;
      dropped_count = Array.make num_colors 0;
      dropped_colors = Array.make num_colors 0;
      dropped_len = 0;
      expire = (fun time color -> expire_at t time color);
    }
  in
  t

let create ~num_colors =
  make
    ~runs:(Array.init num_colors (fun _ -> new_runs ()))
    ~pending:(Array.make num_colors 0)
    ~total:0
    ~wheel:(Timing_wheel.create ~horizon:64 ())

let pending t color = t.pending.(color)
let nonidle t color = t.pending.(color) > 0

let earliest_deadline t color =
  let r = t.runs.(color) in
  if r.len = 0 then None else Some r.deadline.(slot r 0)

let total_pending t = t.total

let nonidle_colors t =
  let acc = ref [] in
  for color = Array.length t.pending - 1 downto 0 do
    if nonidle t color then acc := color :: !acc
  done;
  !acc

let deadlines t color =
  let r = t.runs.(color) in
  List.init r.len (fun i -> (r.deadline.(slot r i), r.count.(slot r i)))

let add t ~color ~deadline ~count =
  if count < 0 then invalid_arg "Job_pool.add: negative count";
  if count > 0 then begin
    if deadline < Timing_wheel.now t.wheel then
      invalid_arg "Job_pool.add: deadline already expired";
    (* Register the color once per (color, deadline) run; duplicate
       wheel entries are harmless because expiry removes the whole run. *)
    if push t.runs.(color) ~deadline ~count then
      Timing_wheel.add t.wheel ~time:deadline color;
    t.pending.(color) <- t.pending.(color) + count;
    t.total <- t.total + count
  end

(* Ascending insertion sort of the (few) colors dropped this phase. *)
let sort_dropped t =
  let colors = t.dropped_colors in
  for i = 1 to t.dropped_len - 1 do
    let color = colors.(i) in
    let j = ref (i - 1) in
    while !j >= 0 && colors.(!j) > color do
      colors.(!j + 1) <- colors.(!j);
      decr j
    done;
    colors.(!j + 1) <- color
  done

let drop_expired t ~round =
  (* Most rounds drop nothing: the wheel slot is empty, [advance] returns
     at once and nothing is allocated. *)
  t.dropped_len <- 0;
  Timing_wheel.advance t.wheel ~time:(round + 1) t.expire;
  sort_dropped t;
  let acc = ref [] in
  for i = t.dropped_len - 1 downto 0 do
    let color = t.dropped_colors.(i) in
    acc := (color, t.dropped_count.(color)) :: !acc;
    t.dropped_count.(color) <- 0
  done;
  !acc

let execute t ~color ~round =
  let r = t.runs.(color) in
  if r.len = 0 then -1
  else begin
    let deadline = r.deadline.(slot r 0) in
    if deadline <= round then
      invalid_arg
        (Printf.sprintf
           "Job_pool.execute_one: expired job (deadline %d <= round %d)" deadline
           round);
    take_front r 1;
    remove_jobs t color 1;
    deadline
  end

let execute_one t ~color ~round =
  match execute t ~color ~round with -1 -> None | deadline -> Some deadline

let copy t =
  (* The copy preserves the expiry clock: [Timing_wheel.copy] keeps the
     wheel's time. Rebuilding via [add] into a fresh pool would reset it
     to 0, so the copy would accept already-expired deadlines and re-walk
     every round from 0 on its next [drop_expired]. *)
  let copy_runs r =
    { r with deadline = Array.copy r.deadline; count = Array.copy r.count }
  in
  make ~runs:(Array.map copy_runs t.runs) ~pending:(Array.copy t.pending)
    ~total:t.total ~wheel:(Timing_wheel.copy t.wheel)
