type t = {
  members : int array; (* [members.(0 .. count - 1)] *)
  position : int array; (* index into [members], or -1 when absent *)
  mutable count : int;
}

let create ~universe =
  if universe < 0 then invalid_arg "Dense_set.create: negative universe";
  { members = Array.make universe 0; position = Array.make universe (-1); count = 0 }

let cardinal t = t.count
let mem t x = t.position.(x) >= 0

let add t x =
  if x < 0 || x >= Array.length t.position then
    invalid_arg
      (Printf.sprintf "Dense_set.add: %d outside [0, %d)" x (Array.length t.position));
  if t.position.(x) < 0 then begin
    t.members.(t.count) <- x;
    t.position.(x) <- t.count;
    t.count <- t.count + 1
  end

let remove t x =
  let i = t.position.(x) in
  if i >= 0 then begin
    let last = t.count - 1 in
    let moved = t.members.(last) in
    t.members.(i) <- moved;
    t.position.(moved) <- i;
    t.position.(x) <- -1;
    t.count <- last
  end

let nth t i =
  if i < 0 || i >= t.count then invalid_arg "Dense_set.nth: index out of range";
  t.members.(i)

let clear t =
  for i = 0 to t.count - 1 do
    t.position.(t.members.(i)) <- -1
  done;
  t.count <- 0

let to_sorted_list t =
  List.sort Int.compare (List.init t.count (fun i -> t.members.(i)))
