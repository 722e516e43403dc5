type t = Random.State.t

let create ~seed = Random.State.make [| seed; 0x5eed; seed lxor 0x9e3779b9 |]
let int t bound = Random.State.int t (max bound 1)

let int_range t ~lo ~hi =
  if hi < lo then invalid_arg "Gen.int_range: hi < lo";
  lo + Random.State.int t (hi - lo + 1)

let float t bound = Random.State.float t bound

(* [Random.State.float t 1.0] without boxing its result: OCaml 5's
   definition (the top 53 of 64 random bits, scaled; a zero is redrawn),
   inlined where the compiler keeps the float unboxed. *)
let[@inline] unit_float t =
  let bits = ref (Int64.shift_right_logical (Random.State.bits64 t) 11) in
  while !bits = 0L do
    bits := Int64.shift_right_logical (Random.State.bits64 t) 11
  done;
  Int64.to_float !bits *. 0x1.p-53

let flip t ~p = unit_float t < p

let geometric t ~p ~cap =
  if p <= 0.0 || p > 1.0 then invalid_arg "Gen.geometric: p out of (0, 1]";
  let failures = ref 0 in
  while !failures < cap && not (unit_float t < p) do
    incr failures
  done;
  if !failures >= cap then cap else !failures

(* Knuth's method against [limit = exp (-. lambda)]. *)
let[@inline] knuth t ~limit ~cap =
  let k = ref 0 in
  let product = ref (unit_float t) in
  while not (!product <= limit || !k >= cap) do
    incr k;
    product := !product *. unit_float t
  done;
  min !k cap

let poisson t ~lambda ~cap =
  if lambda < 0.0 then invalid_arg "Gen.poisson: negative lambda";
  knuth t ~limit:(exp (-.lambda)) ~cap

let poisson_draws t ~lambda ~cap =
  let limit = exp (-.lambda) in
  fun () ->
    (* Refused at a draw, as [poisson] refuses it: a drawer never called
       raises nothing. *)
    if lambda < 0.0 then invalid_arg "Gen.poisson: negative lambda";
    knuth t ~limit ~cap

let choice t = function
  | [] -> invalid_arg "Gen.choice: empty list"
  | xs -> List.nth xs (int t (List.length xs))

let pow2_range t ~lo ~hi =
  if lo < 0 || hi < lo then invalid_arg "Gen.pow2_range: bad range";
  1 lsl int_range t ~lo ~hi

let zipf_weight ~rank ~s =
  if rank < 1 then invalid_arg "Gen.zipf_weight: rank must be >= 1";
  1.0 /. (float_of_int rank ** s)
