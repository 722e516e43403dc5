module Types = Rrs_sim.Types
module Dense_set = Rrs_ds.Dense_set

type t = {
  table : (Types.color, unit) Hashtbl.t; (* the order of record *)
  members : Dense_set.t;
  scratch : int array; (* the table's traversal, for placement *)
  mutable filled : int;
  push : Types.color -> unit -> unit; (* appends to [scratch] *)
}

let create ~num_colors =
  let rec t =
    {
      table = Hashtbl.create ~random:false 16;
      members = Dense_set.create ~universe:num_colors;
      scratch = Array.make num_colors 0;
      filled = 0;
      push =
        (fun color () ->
          t.scratch.(t.filled) <- color;
          t.filled <- t.filled + 1);
    }
  in
  t

let cardinal t = Dense_set.cardinal t.members
let mem t color = Dense_set.mem t.members color
let nth t i = Dense_set.nth t.members i

let add t color =
  if not (Dense_set.mem t.members color) then begin
    Hashtbl.replace t.table color ();
    Dense_set.add t.members color
  end

let remove t color =
  if Dense_set.mem t.members color then begin
    Hashtbl.remove t.table color;
    Dense_set.remove t.members color
  end

(* The order of record is the list [Hashtbl.fold (fun c () acc -> c ::
   acc)] builds — the table's traversal, reversed — built here without
   the list. *)
let iter_placement_order t f =
  t.filled <- 0;
  Hashtbl.iter t.push t.table;
  for i = t.filled - 1 downto 0 do
    f t.scratch.(i)
  done

let to_sorted_list t = Dense_set.to_sorted_list t.members

let restore t colors =
  Hashtbl.reset t.table;
  Dense_set.clear t.members;
  Array.iter (add t) colors
