module type ORDERED = sig
  type t

  val compare : t -> t -> int
end

module Make (Elt : ORDERED) = struct
  type t = {
    mutable data : Elt.t array;
    mutable size : int;
    capacity : int; (* length of the backing array at the first push *)
  }

  (* The backing array is created lazily on first push so that [create]
     needs no dummy element. *)
  let create ?(capacity = 16) () = { data = [||]; size = 0; capacity = max capacity 1 }

  let length h = h.size
  let is_empty h = h.size = 0

  let grow h x =
    if Array.length h.data = 0 then h.data <- Array.make h.capacity x
    else begin
      let data = Array.make (2 * Array.length h.data) h.data.(0) in
      Array.blit h.data 0 data 0 h.size;
      h.data <- data
    end

  let swap h i j =
    let tmp = h.data.(i) in
    h.data.(i) <- h.data.(j);
    h.data.(j) <- tmp

  let rec sift_up h i =
    if i > 0 then begin
      let parent = (i - 1) / 2 in
      if Elt.compare h.data.(i) h.data.(parent) < 0 then begin
        swap h i parent;
        sift_up h parent
      end
    end

  let rec sift_down h i =
    let left = (2 * i) + 1 in
    let right = left + 1 in
    let smallest = ref i in
    if left < h.size && Elt.compare h.data.(left) h.data.(!smallest) < 0 then
      smallest := left;
    if right < h.size && Elt.compare h.data.(right) h.data.(!smallest) < 0 then
      smallest := right;
    if !smallest <> i then begin
      swap h i !smallest;
      sift_down h !smallest
    end

  let push h x =
    if h.size >= Array.length h.data then grow h x;
    h.data.(h.size) <- x;
    h.size <- h.size + 1;
    sift_up h (h.size - 1)

  let of_list xs =
    match xs with
    | [] -> create ()
    | first :: _ ->
        let n = List.length xs in
        let data = Array.make (max n 16) first in
        List.iteri (fun i x -> data.(i) <- x) xs;
        let h = { data; size = n; capacity = 16 } in
        for i = (n / 2) - 1 downto 0 do
          sift_down h i
        done;
        h

  let peek_min h = if h.size = 0 then raise Not_found else h.data.(0)

  let pop_min h =
    if h.size = 0 then raise Not_found;
    let min = h.data.(0) in
    h.size <- h.size - 1;
    if h.size > 0 then begin
      h.data.(0) <- h.data.(h.size);
      sift_down h 0
    end;
    min

  let pop_min_opt h = if h.size = 0 then None else Some (pop_min h)
  let clear h = h.size <- 0

  let iter f h =
    for i = 0 to h.size - 1 do
      f h.data.(i)
    done

  let to_sorted_list h =
    if h.size = 0 then []
    else begin
      let copy = { h with data = Array.sub h.data 0 h.size } in
      let rec drain acc =
        match pop_min_opt copy with
        | None -> List.rev acc
        | Some x -> drain (x :: acc)
      in
      drain []
    end

  let check_invariant h =
    let ok = ref true in
    for i = 1 to h.size - 1 do
      if Elt.compare h.data.((i - 1) / 2) h.data.(i) > 0 then ok := false
    done;
    !ok
end
