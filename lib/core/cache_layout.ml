type t = {
  n : int;
  copies : int;
  needed : int array; (* per color: copies still to place, during [assign] *)
  wanted : int array; (* the wanted colors, [0 .. count - 1] *)
  mutable count : int;
  (* [set] numbers the wanted sets: [mark.(c) = set] when [c] is wanted
     in the open set, [set - 1] when it was in the last assigned one. *)
  mark : int array;
  mutable set : int;
  mutable same : bool; (* every color wanted so far was in the last set *)
  mutable last_count : int; (* size of the last set; -1 = none to reuse *)
  top : int array; (* per color of the last set: its highest target location *)
  some : Rrs_sim.Types.color option array; (* [Some c], shared, per color *)
  target : Rrs_sim.Types.color option array;
  mutable next_free : int;
  fill : Rrs_sim.Types.color -> unit; (* [fill_missing] of this layout *)
}

(* Places [color]'s missing copies in the lowest free locations. *)
let fill_missing t color =
  while t.needed.(color) > 0 do
    while t.next_free < t.n && Option.is_some t.target.(t.next_free) do
      t.next_free <- t.next_free + 1
    done;
    t.target.(t.next_free) <- t.some.(color);
    t.next_free <- t.next_free + 1;
    t.needed.(color) <- t.needed.(color) - 1
  done

let create ~n ~copies ~num_colors =
  if copies < 1 then invalid_arg "Cache_layout: copies must be >= 1";
  let rec t =
    {
      n;
      copies;
      needed = Array.make num_colors 0;
      wanted = Array.make (n / copies) 0;
      count = 0;
      mark = Array.make num_colors min_int;
      set = 1;
      same = true;
      last_count = 0; (* the empty set, placed as an all-[None] target *)
      top = Array.make num_colors 0;
      some = Array.init num_colors Option.some;
      target = Array.make n None;
      next_free = 0;
      fill = (fun color -> fill_missing t color);
    }
  in
  t

let want t color =
  let mark = t.mark.(color) in
  if mark = t.set then invalid_arg "Cache_layout: duplicate wanted color";
  if (t.count + 1) * t.copies > t.n then
    invalid_arg
      (Printf.sprintf "Cache_layout: %d copies of %d colors exceed %d locations"
         t.copies (t.count + 1) t.n);
  if mark <> t.set - 1 then t.same <- false;
  t.mark.(color) <- t.set;
  t.wanted.(t.count) <- color;
  t.count <- t.count + 1

let rewant t =
  if t.count > 0 || t.last_count < 0 then
    invalid_arg "Cache_layout.rewant: no assigned set to want again";
  (* [wanted] still lists the last set. *)
  for i = 0 to t.last_count - 1 do
    t.mark.(t.wanted.(i)) <- t.set
  done;
  t.count <- t.last_count

(* Closes the open wanted set: it becomes the last one. *)
let close t =
  t.set <- t.set + 1;
  t.count <- 0;
  t.same <- true

(* The last target is still the answer when the wanted set is the same
   and, for every wanted color, its target locations are still its
   lowest-index locations in [current]: every location the target
   activated holds its color, and no other location below a color's
   highest target location holds that color. *)
let reusable t ~current =
  t.same && t.count = t.last_count
  &&
  let ok = ref true and location = ref 0 in
  while !ok && !location < t.n do
    (match (t.target.(!location), current.(!location)) with
    | Some color, Some held -> ok := color = held
    | Some _, None -> ok := false
    | None, Some held -> ok := not (t.mark.(held) = t.set && !location < t.top.(held))
    | None, None -> ());
    incr location
  done;
  !ok

let assign t ~current ~order =
  let target = t.target in
  if not (reusable t ~current) then begin
    Array.fill target 0 t.n None;
    for i = 0 to t.count - 1 do
      t.needed.(t.wanted.(i)) <- t.copies
    done;
    (* Keep existing placements of wanted colors. *)
    let missing = ref (t.count * t.copies) in
    for location = 0 to t.n - 1 do
      match current.(location) with
      | Some color as kept when t.needed.(color) > 0 ->
          target.(location) <- kept;
          t.needed.(color) <- t.needed.(color) - 1;
          decr missing
      | Some _ | None -> ()
    done;
    (* Fill missing copies into the lowest free locations, in order. *)
    if !missing > 0 then begin
      t.next_free <- 0;
      order t.fill;
      for i = 0 to t.count - 1 do
        let color = t.wanted.(i) in
        if t.needed.(color) > 0 then begin
          for j = 0 to t.count - 1 do
            t.needed.(t.wanted.(j)) <- 0
          done;
          t.last_count <- -1;
          close t;
          invalid_arg "Cache_layout.assign: order skipped a wanted color"
        end
      done
    end;
    for location = 0 to t.n - 1 do
      match target.(location) with Some color -> t.top.(color) <- location | None -> ()
    done;
    t.last_count <- t.count
  end;
  close t;
  target
