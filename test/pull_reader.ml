(* Reference model for [Wire.Stream]: a blocking pull reader over a
   [read(2)]-like function, written the obvious way — read a line, read
   a header, read exactly a payload — and built only on the public
   codec ([Wire.decode], [Wire.decode_binary]). The qcheck suite in
   test_wire_stream compares the incremental parser against it over
   random byte soups; nothing in the library uses it. *)

module Wire = Rrs_server.Wire

let magic0 = '\xF2'
let magic1 = 'R'

type t = {
  pull : Bytes.t -> int -> int -> int; (* read(2) semantics: 0 = EOF *)
  chunk : Bytes.t;
  mutable pos : int; (* next unconsumed byte in [chunk] *)
  mutable len : int; (* valid bytes in [chunk] *)
}

let create pull = { pull; chunk = Bytes.create (64 * 1024); pos = 0; len = 0 }

let of_string data =
  let at = ref 0 in
  create (fun buf off len ->
      let k = min len (String.length data - !at) in
      Bytes.blit_string data !at buf off k;
      at := !at + k;
      k)

(* Make at least one byte available; false at EOF. *)
let refill r =
  r.pos < r.len
  ||
  let k = r.pull r.chunk 0 (Bytes.length r.chunk) in
  r.pos <- 0;
  r.len <- k;
  k > 0

(* Make at least [want] contiguous bytes available; false at EOF. *)
let ensure r want =
  if r.len - r.pos >= want then true
  else begin
    Bytes.blit r.chunk r.pos r.chunk 0 (r.len - r.pos);
    r.len <- r.len - r.pos;
    r.pos <- 0;
    let rec fill () =
      r.len >= want
      ||
      let k = r.pull r.chunk r.len (Bytes.length r.chunk - r.len) in
      k > 0
      && begin
           r.len <- r.len + k;
           fill ()
         end
    in
    fill ()
  end

(* Exactly [n] bytes (may exceed the chunk); None at EOF. *)
let read_exact r n =
  let out = Bytes.create n in
  let have = min n (r.len - r.pos) in
  Bytes.blit r.chunk r.pos out 0 have;
  r.pos <- r.pos + have;
  let rec go off =
    if off >= n then Some (Bytes.unsafe_to_string out)
    else
      let k = r.pull out off (n - off) in
      if k = 0 then None else go (off + k)
  in
  go have

let frame_too_long () =
  Wire.Malformed (Printf.sprintf "frame longer than %d bytes" Wire.max_frame)

(* One newline-terminated line (EOF also ends one); a line longer than
   [max_frame] is dropped whole and reported once. *)
let read_line r =
  if not (refill r) then None
  else begin
    let line = Buffer.create 256 in
    let overflow = ref false in
    let finished = ref false in
    while not !finished do
      if r.pos >= r.len && not (refill r) then finished := true
      else begin
        let c = Bytes.get r.chunk r.pos in
        r.pos <- r.pos + 1;
        if c = '\n' then finished := true
        else if Buffer.length line >= Wire.max_frame then overflow := true
        else Buffer.add_char line c
      end
    done;
    Some (if !overflow then Error () else Ok (Buffer.contents line))
  end

let parse_v1_line line =
  match String.index_opt line ' ' with
  | None -> Wire.Malformed "missing length prefix"
  | Some space -> (
      let prefix = String.sub line 0 space in
      let body = String.sub line (space + 1) (String.length line - space - 1) in
      match int_of_string_opt prefix with
      | None -> Wire.Malformed (Printf.sprintf "bad length prefix %S" prefix)
      | Some length when length <> String.length body ->
          Wire.Malformed
            (Printf.sprintf "length prefix %d does not match body length %d"
               length (String.length body))
      | Some _ -> (
          match Wire.decode body with
          | Ok frame -> Wire.Frame frame
          | Error message -> Wire.Malformed message))

let read_v1 r =
  match read_line r with
  | None -> Wire.Eof
  | Some (Error ()) -> frame_too_long ()
  | Some (Ok line) -> parse_v1_line line

(* Skip garbage up to and including a newline, or up to (not including)
   the next magic pair; the count of bytes skipped. *)
let skip_garbage r =
  let skipped = ref 0 in
  let continue = ref true in
  while !continue do
    if r.pos >= r.len && not (refill r) then continue := false
    else
      let c = Bytes.get r.chunk r.pos in
      if c = '\n' then begin
        r.pos <- r.pos + 1;
        incr skipped;
        continue := false
      end
      else if c = magic0 && ensure r 2 && Bytes.get r.chunk (r.pos + 1) = magic1
      then continue := false
      else begin
        r.pos <- r.pos + 1;
        incr skipped
      end
  done;
  !skipped

let read_v2 r =
  if not (ensure r 2) then begin
    r.pos <- r.len;
    Wire.Eof
  end
  else if
    not
      (Bytes.get r.chunk r.pos = magic0 && Bytes.get r.chunk (r.pos + 1) = magic1)
  then
    Wire.Malformed
      (Printf.sprintf "not a frame: skipped %d garbage byte(s)" (skip_garbage r))
  else if not (ensure r 7) then begin
    r.pos <- r.len;
    Wire.Eof
  end
  else begin
    let header = Bytes.sub_string r.chunk r.pos 7 in
    r.pos <- r.pos + 7;
    let b i = Char.code header.[i] in
    let length = (b 2 lsl 24) lor (b 3 lsl 16) lor (b 4 lsl 8) lor b 5 in
    if length > Wire.max_frame then frame_too_long ()
    else
      match read_exact r length with
      | None -> Wire.Eof
      | Some payload -> (
          match Wire.decode_binary (header ^ payload) with
          | Ok frame -> Wire.Frame frame
          | Error message -> Wire.Malformed message)
  end

let read ~framing r =
  match framing with Wire.V1 -> read_v1 r | Wire.V2 -> read_v2 r

(* Every result over [data], read to EOF. *)
let results framing data =
  let r = of_string data in
  let rec go acc n =
    if n > 10_000 then failwith "pull reader did not reach EOF"
    else
      match read ~framing r with
      | Wire.Eof -> List.rev (Wire.Eof :: acc)
      | result -> go (result :: acc) (n + 1)
  in
  go [] 0
