type t = {
  n : int;
  copies : int;
  needed : int array; (* per color: copies still to place, 0 = not wanted *)
  wanted : int array; (* the wanted colors, [0 .. count - 1] *)
  mutable count : int;
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
      some = Array.init num_colors Option.some;
      target = Array.make n None;
      next_free = 0;
      fill = (fun color -> fill_missing t color);
    }
  in
  t

let want t color =
  if t.needed.(color) > 0 then invalid_arg "Cache_layout: duplicate wanted color";
  if (t.count + 1) * t.copies > t.n then
    invalid_arg
      (Printf.sprintf "Cache_layout: %d copies of %d colors exceed %d locations"
         t.copies (t.count + 1) t.n);
  t.needed.(color) <- t.copies;
  t.wanted.(t.count) <- color;
  t.count <- t.count + 1

let assign t ~current ~order =
  let target = t.target in
  Array.fill target 0 t.n None;
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
        t.needed.(color) <- 0;
        t.count <- 0;
        invalid_arg "Cache_layout.assign: order skipped a wanted color"
      end
    done
  end;
  t.count <- 0;
  target
