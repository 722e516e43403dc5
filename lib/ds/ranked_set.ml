type t = {
  order : int array; (* members, best first, [0 .. count - 1] *)
  mutable count : int;
  member : bool array;
  k1 : int array; (* a member's key, valid while it is a member *)
  k2 : int array;
}

let create ~universe =
  if universe < 0 then invalid_arg "Ranked_set.create: negative universe";
  {
    order = Array.make universe 0;
    count = 0;
    member = Array.make universe false;
    k1 = Array.make universe 0;
    k2 = Array.make universe 0;
  }

let cardinal t = t.count
let mem t x = t.member.(x)

(* The first position whose member does not rank before [(k1, k2, x)]. *)
let search t k1 k2 x =
  let lo = ref 0 and hi = ref t.count in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    let m = t.order.(mid) in
    let m1 = t.k1.(m) in
    if m1 < k1 || (m1 = k1 && (t.k2.(m) < k2 || (t.k2.(m) = k2 && m < x))) then
      lo := mid + 1
    else hi := mid
  done;
  !lo

let remove t x =
  if t.member.(x) then begin
    let p = search t t.k1.(x) t.k2.(x) x in
    Array.blit t.order (p + 1) t.order p (t.count - p - 1);
    t.count <- t.count - 1;
    t.member.(x) <- false
  end

let add t x ~k1 ~k2 =
  if x < 0 || x >= Array.length t.member then
    invalid_arg
      (Printf.sprintf "Ranked_set.add: %d outside [0, %d)" x (Array.length t.member));
  if not t.member.(x) then begin
    let q = search t k1 k2 x in
    Array.blit t.order q t.order (q + 1) (t.count - q);
    t.order.(q) <- x;
    t.count <- t.count + 1;
    t.member.(x) <- true
  end
  else if t.k1.(x) <> k1 || t.k2.(x) <> k2 then begin
    (* Move [x] from [p] in one shift: [q] is counted with [x] still at
       [p], which ranks before the new key exactly when [x] moves back. *)
    let p = search t t.k1.(x) t.k2.(x) x in
    let q = search t k1 k2 x in
    if q > p then begin
      Array.blit t.order (p + 1) t.order p (q - 1 - p);
      t.order.(q - 1) <- x
    end
    else begin
      Array.blit t.order q t.order (q + 1) (p - q);
      t.order.(q) <- x
    end
  end;
  t.k1.(x) <- k1;
  t.k2.(x) <- k2

let nth t i =
  if i < 0 || i >= t.count then invalid_arg "Ranked_set.nth: index out of range";
  t.order.(i)

let clear t =
  for i = 0 to t.count - 1 do
    t.member.(t.order.(i)) <- false
  done;
  t.count <- 0
