module Json = Rrs_sim.Event_sink.Json

let version = "rrs-wire/1"
let version2 = "rrs-wire/2"

(* One frame must fit one line; longer payloads (snapshot docs) are close
   to but far under this in practice — raise deliberately if they grow. *)
let max_frame = 4 * 1024 * 1024

type framing = V1 | V2

type decl = { d_rates : int array; d_den : int; d_bursts : int array }

type frame =
  (* requests *)
  | Hello of { client_version : string }
  | Open of {
      session : string;
      policy : string;
      delta : int;
      bounds : int array;
      n : int;
      speed : int;
      horizon : int;
      queue_limit : int; (* 0 = server default *)
      decl : decl option;
    }
  | Feed of {
      session : string;
      colors : int array;
      counts : int array;
      decl : decl option;
    }
  | Step of { session : string; rounds : int }
  | Stats of { session : string }
  | Snapshot of { session : string; path : string option }
  | Close of { session : string }
  | Metrics of { slow : int } (* max slow-log entries wanted *)
  (* replies *)
  | Hello_ok of {
      server_version : string;
      server : string; (* server identity, e.g. "rrs/1.0.0" *)
      uptime_s : int;
    }
  | Opened of { session : string; round : int }
  | Fed of { session : string; accepted : int; buffered : int }
  | Shed of { session : string; shed : int; buffered : int; limit : int }
  | Stepped of {
      session : string;
      round : int;
      pending : int;
      cost : int;
      reconfigs : int;
      drops : int;
      execs : int;
    }
  | Stats_ok of {
      session : string;
      round : int;
      pending : int; (* in the pool *)
      buffered : int; (* fed, not yet stepped *)
      fed : int; (* attempted: accepted + shed *)
      accepted : int;
      shed : int;
      execs : int;
      drops : int;
      reconfigs : int;
      failed : int;
      cost : int;
      wire : int; (* negotiated wire version of the connection *)
      bytes_in : int; (* server-side bytes read on the connection *)
      bytes_out : int; (* server-side bytes written on the connection *)
    }
  | Snapshotted of { session : string; path : string option; doc : string option }
  | Closed of { session : string; cost : int }
  | Metrics_ok of {
      doc : string; (* merged snapshot as a flat JSON object, name -> int *)
      slow : string; (* slow-request log, one JSON object per line *)
    }
  | Admission_reject of {
      session : string;
      color : int; (* binding color; -1 = aggregate deployment capacity *)
      demand : int; (* offered/declared demand, units per [message] *)
      supply : int; (* the budget it violates *)
      message : string; (* names the binding constraint *)
    }
  | Error_frame of { message : string }

(* ---- the field schema ----

   Each frame type is described once: its /1 type name, its /2 tag and
   its fields in wire order, each with its /1 key. The four codecs below
   (/1 and /2, encode and decode) interpret this description, so a new
   field goes into the frame type and its shape here, and no codec
   changes. *)

type _ field =
  | Int : string * int option -> int field
      (* key, and the value of a /1 frame that leaves the key out *)
  | Str : string * string option -> string field
  | Ints : string -> int array field
  | Opt_str : string -> string option field
      (* /1: the key is left out for [None]; /2: a presence byte *)
  | Decl : decl option field
      (* Always last. /1: the keys [rates], [rate_den] and [bursts] (left
         out when empty), keyed on [rate_den]. /2: a presence-marked
         group written only when declared, so an undeclared frame is
         byte-identical to the pre-declaration encoding. *)

(* A frame's fields, and a list of values of the same shape. *)
type _ fields =
  | [] : unit fields
  | ( :: ) : 'a field * 'b fields -> ('a * 'b) fields

type _ values = [] : unit values | ( :: ) : 'a * 'b values -> ('a * 'b) values

type 'a shape = {
  name : string; (* the /1 "type" *)
  tag : int; (* the /2 tag byte *)
  fields : 'a fields;
  make : 'a values -> frame;
}

type any_shape = Shape : 'a shape -> any_shape
type view = View : 'a shape * 'a values -> view

let shape name tag fields make = { name; tag; fields; make }
let int key = Int (key, None)
let str key = Str (key, None)
let session = str "session"

(* requests *)
let hello =
  shape "hello" 1 [ str "version" ] (fun [ client_version ] ->
      Hello { client_version })
let open_ =
  shape "open" 2
    [ session; str "policy"; int "delta"; Ints "bounds"; int "n";
      Int ("speed", Some 1); Int ("horizon", Some 0);
      Int ("queue_limit", Some 0); Decl ]
    (fun [ session; policy; delta; bounds; n; speed; horizon; queue_limit;
           decl ] ->
      Open
        { session; policy; delta; bounds; n; speed; horizon; queue_limit;
          decl })
let feed =
  shape "feed" 3 [ session; Ints "colors"; Ints "counts"; Decl ]
    (fun [ session; colors; counts; decl ] ->
      Feed { session; colors; counts; decl })
let step =
  shape "step" 4 [ session; Int ("rounds", Some 1) ] (fun [ session; rounds ] ->
      Step { session; rounds })
let stats = shape "stats" 5 [ session ] (fun [ session ] -> Stats { session })
let snapshot =
  shape "snapshot" 6 [ session; Opt_str "path" ] (fun [ session; path ] ->
      Snapshot { session; path })
let close = shape "close" 7 [ session ] (fun [ session ] -> Close { session })
let metrics =
  shape "metrics" 8 [ Int ("slow", Some 0) ] (fun [ slow ] -> Metrics { slow })

(* replies *)
let hello_ok =
  shape "hello_ok" 17
    [ str "version"; Str ("server", Some ""); Int ("uptime_s", Some 0) ]
    (fun [ server_version; server; uptime_s ] ->
      Hello_ok { server_version; server; uptime_s })
let opened =
  shape "opened" 18 [ session; int "round" ] (fun [ session; round ] ->
      Opened { session; round })
let fed =
  shape "fed" 19 [ session; int "accepted"; int "buffered" ]
    (fun [ session; accepted; buffered ] -> Fed { session; accepted; buffered })
let shed =
  shape "shed" 20 [ session; int "shed"; int "buffered"; int "limit" ]
    (fun [ session; shed; buffered; limit ] ->
      Shed { session; shed; buffered; limit })
let stepped =
  shape "stepped" 21
    [ session; int "round"; int "pending"; int "cost"; int "reconfigs";
      int "drops"; int "execs" ]
    (fun [ session; round; pending; cost; reconfigs; drops; execs ] ->
      Stepped { session; round; pending; cost; reconfigs; drops; execs })
let stats_ok =
  shape "stats_ok" 22
    [ session; int "round"; int "pending"; int "buffered"; int "fed";
      int "accepted"; int "shed"; int "execs"; int "drops"; int "reconfigs";
      int "failed"; int "cost"; Int ("wire", Some 0); Int ("bytes_in", Some 0);
      Int ("bytes_out", Some 0) ]
    (fun [ session; round; pending; buffered; fed; accepted; shed; execs;
           drops; reconfigs; failed; cost; wire; bytes_in; bytes_out ] ->
      Stats_ok
        { session; round; pending; buffered; fed; accepted; shed; execs; drops;
          reconfigs; failed; cost; wire; bytes_in; bytes_out })
let snapshotted =
  shape "snapshotted" 23 [ session; Opt_str "path"; Opt_str "doc" ]
    (fun [ session; path; doc ] -> Snapshotted { session; path; doc })
let closed =
  shape "closed" 24 [ session; int "cost" ] (fun [ session; cost ] ->
      Closed { session; cost })
let error =
  shape "error" 25 [ str "message" ] (fun [ message ] ->
      Error_frame { message })
let metrics_ok =
  shape "metrics_ok" 26 [ str "doc"; Str ("slow", Some "") ]
    (fun [ doc; slow ] -> Metrics_ok { doc; slow })
let admission_rejected =
  shape "admission_rejected" 27
    [ session; int "color"; int "demand"; int "supply"; str "message" ]
    (fun [ session; color; demand; supply; message ] ->
      Admission_reject { session; color; demand; supply; message })

let request_shapes : any_shape list =
  [ Shape hello; Shape open_; Shape feed; Shape step; Shape stats;
    Shape snapshot; Shape close; Shape metrics ]

let shapes =
  request_shapes
  @ [ Shape hello_ok; Shape opened; Shape fed; Shape shed; Shape stepped;
      Shape stats_ok; Shape snapshotted; Shape closed; Shape error;
      Shape metrics_ok; Shape admission_rejected ]

let requests =
  Array.of_list (List.map (fun (Shape shape) -> shape.name) request_shapes)

let view = function
  | Hello { client_version } -> View (hello, [ client_version ])
  | Open { session; policy; delta; bounds; n; speed; horizon; queue_limit; decl }
    ->
      View
        ( open_,
          [ session; policy; delta; bounds; n; speed; horizon; queue_limit;
            decl ] )
  | Feed { session; colors; counts; decl } ->
      View (feed, [ session; colors; counts; decl ])
  | Step { session; rounds } -> View (step, [ session; rounds ])
  | Stats { session } -> View (stats, [ session ])
  | Snapshot { session; path } -> View (snapshot, [ session; path ])
  | Close { session } -> View (close, [ session ])
  | Metrics { slow } -> View (metrics, [ slow ])
  | Hello_ok { server_version; server; uptime_s } ->
      View (hello_ok, [ server_version; server; uptime_s ])
  | Opened { session; round } -> View (opened, [ session; round ])
  | Fed { session; accepted; buffered } ->
      View (fed, [ session; accepted; buffered ])
  | Shed { session; shed = s; buffered; limit } ->
      View (shed, [ session; s; buffered; limit ])
  | Stepped { session; round; pending; cost; reconfigs; drops; execs } ->
      View (stepped, [ session; round; pending; cost; reconfigs; drops; execs ])
  | Stats_ok
      { session; round; pending; buffered; fed = f; accepted; shed = s; execs;
        drops; reconfigs; failed; cost; wire; bytes_in; bytes_out } ->
      View
        ( stats_ok,
          [ session; round; pending; buffered; f; accepted; s; execs; drops;
            reconfigs; failed; cost; wire; bytes_in; bytes_out ] )
  | Snapshotted { session; path; doc } ->
      View (snapshotted, [ session; path; doc ])
  | Closed { session; cost } -> View (closed, [ session; cost ])
  | Error_frame { message } -> View (error, [ message ])
  | Metrics_ok { doc; slow } -> View (metrics_ok, [ doc; slow ])
  | Admission_reject { session; color; demand; supply; message } ->
      View (admission_rejected, [ session; color; demand; supply; message ])

let tag frame =
  let (View (shape, _)) = view frame in
  shape.tag

(* The walks every codec shares: one field at a time, in schema order. *)

type each = { each : 'a. 'a field -> 'a -> unit }

let rec iter : type a. each -> a fields -> a values -> unit =
 fun f fields values ->
  match (fields, values) with
  | [], [] -> ()
  | field :: fields, value :: values ->
      f.each field value;
      iter f fields values

type read = { read : 'a. 'a field -> 'a }

let rec build : type a. read -> a fields -> a values =
 fun r fields ->
  match fields with
  | [] -> []
  | field :: fields ->
      let value = r.read field in
      value :: build r fields

(* ---- rrs-wire/1: flat JSON objects ---- *)

let add_key buffer key =
  Buffer.add_string buffer ",\"";
  Buffer.add_string buffer key;
  Buffer.add_string buffer "\":"

let add_json_int buffer key value =
  add_key buffer key;
  Buffer.add_string buffer (string_of_int value)

let add_json_ints buffer key values =
  add_key buffer key;
  Buffer.add_char buffer '[';
  Array.iteri
    (fun i v ->
      if i > 0 then Buffer.add_char buffer ',';
      Buffer.add_string buffer (string_of_int v))
    values;
  Buffer.add_char buffer ']'

let add_json_str buffer key value =
  add_key buffer key;
  Json.escape_into buffer value

let add_json_field (type a) buffer (field : a field) (value : a) =
  match field with
  | Int (key, _) -> add_json_int buffer key value
  | Str (key, _) -> add_json_str buffer key value
  | Ints key -> add_json_ints buffer key value
  | Opt_str key -> Option.iter (add_json_str buffer key) value
  | Decl ->
      Option.iter
        (fun { d_rates; d_den; d_bursts } ->
          add_json_ints buffer "rates" d_rates;
          add_json_int buffer "rate_den" d_den;
          if Array.length d_bursts > 0 then
            add_json_ints buffer "bursts" d_bursts)
        value

let encode frame =
  let (View (shape, values)) = view frame in
  let buffer = Buffer.create 256 in
  Buffer.add_string buffer "{\"type\":\"";
  Buffer.add_string buffer shape.name;
  Buffer.add_char buffer '"';
  iter { each = (fun f v -> add_json_field buffer f v) } shape.fields values;
  Buffer.add_char buffer '}';
  Buffer.contents buffer

let parse_error fmt = Printf.ksprintf (fun m -> raise (Json.Parse_error m)) fmt

let opt_str obj key =
  match List.assoc_opt key obj with
  | None -> None
  | Some (Json.Vstr value) -> Some value
  | Some _ -> parse_error "field %S: expected string" key

(* One lookup per key, with the accessors' own error messages. *)
let json_field (type a) obj (field : a field) : a =
  match field with
  | Int (key, None) -> Json.int_field obj key
  | Int (key, Some default) -> Json.opt_int_field obj key ~default
  | Str (key, None) -> Json.str_field obj key
  | Str (key, Some default) -> Option.value (opt_str obj key) ~default
  | Ints key -> Json.ints_field obj key
  | Opt_str key -> opt_str obj key
  | Decl -> (
      match List.assoc_opt "rate_den" obj with
      | None -> None
      | Some (Json.Vint d_den) ->
          let d_rates = Json.ints_field obj "rates" in
          let d_bursts =
            match List.assoc_opt "bursts" obj with
            | None -> [||]
            | Some (Json.Vints bursts) -> bursts
            | Some _ -> parse_error "field \"bursts\": expected int array"
          in
          Some { d_rates; d_den; d_bursts }
      | Some _ -> parse_error "field \"rate_den\": expected int")

let decode text =
  match Json.parse_fields text with
  | exception Json.Parse_error message -> Error message
  | obj -> (
      try
        let name = Json.str_field obj "type" in
        match List.find_opt (fun (Shape s) -> s.name = name) shapes with
        | None -> Error (Printf.sprintf "unknown frame type %S" name)
        | Some (Shape shape) ->
            let read = { read = (fun field -> json_field obj field) } in
            Ok (shape.make (build read shape.fields))
      with Json.Parse_error message -> Error message)

(* ---- rrs-wire/2: binary framing ----

   [magic0 magic1 | u32be payload length | u8 tag | payload]. Ints are
   zigzag LEB128 varints, strings and int arrays length-prefixed, options
   one presence byte. The two magic bytes are the resynchronization
   point: a reader facing garbage skips to the next newline (textual
   garbage stays request/reply interactive) or the next magic pair and
   reports it malformed, mirroring /1's line sync. *)

let magic0 = '\xF2'
let magic1 = 'R'

let add_varint buffer value =
  (* zigzag, so negative ints stay compact and total *)
  let z = (value lsl 1) lxor (value asr (Sys.int_size - 1)) in
  let rec go z =
    if z land lnot 0x7f = 0 then Buffer.add_char buffer (Char.chr z)
    else begin
      Buffer.add_char buffer (Char.chr (z land 0x7f lor 0x80));
      go (z lsr 7)
    end
  in
  go z

let add_string buffer s =
  add_varint buffer (String.length s);
  Buffer.add_string buffer s

let add_ints buffer a =
  add_varint buffer (Array.length a);
  Array.iter (add_varint buffer) a

let add_binary_field (type a) buffer (field : a field) (value : a) =
  match field with
  | Int _ -> add_varint buffer value
  | Str _ -> add_string buffer value
  | Ints _ -> add_ints buffer value
  | Opt_str _ ->
      Buffer.add_char buffer (if Option.is_none value then '\000' else '\001');
      Option.iter (add_string buffer) value
  | Decl ->
      Option.iter
        (fun { d_rates; d_den; d_bursts } ->
          Buffer.add_char buffer '\001';
          add_ints buffer d_rates;
          add_varint buffer d_den;
          add_ints buffer d_bursts)
        value

let encode_binary frame =
  let (View (shape, values)) = view frame in
  let buffer = Buffer.create 64 in
  Buffer.add_char buffer magic0;
  Buffer.add_char buffer magic1;
  Buffer.add_string buffer "\000\000\000\000";
  Buffer.add_char buffer (Char.chr shape.tag);
  iter { each = (fun f v -> add_binary_field buffer f v) } shape.fields values;
  let out = Buffer.to_bytes buffer in
  Bytes.set_int32_be out 2 (Int32.of_int (Bytes.length out - 7));
  Bytes.unsafe_to_string out

(* Binary payload decoding: a cursor over the payload string; every
   malformation is a [Decode_error], never an exception escape. *)

exception Decode_error of string

type cursor = { text : string; mutable at : int }

let fail format = Printf.ksprintf (fun m -> raise (Decode_error m)) format

let next_byte cursor =
  if cursor.at >= String.length cursor.text then fail "truncated payload";
  let byte = Char.code cursor.text.[cursor.at] in
  cursor.at <- cursor.at + 1;
  byte

(* A 63-bit int fits 9 bytes of 7 bits, so a 9th byte that still
   continues is refused rather than shifted off the top. *)
let read_varint cursor =
  let rec go shift acc =
    let byte = next_byte cursor in
    let acc = acc lor ((byte land 0x7f) lsl shift) in
    if byte land 0x80 = 0 then acc
    else if shift >= 56 then fail "varint too long"
    else go (shift + 7) acc
  in
  let z = go 0 0 in
  (z lsr 1) lxor (-(z land 1))

(* A length can be any varint: compare it with what is left, since
   [at + length] may overflow. *)
let read_length cursor what =
  let length = read_varint cursor in
  if length < 0 || length > String.length cursor.text - cursor.at then
    fail "bad %s length %d" what length;
  length

let read_string cursor =
  let length = read_length cursor "string" in
  let s = String.sub cursor.text cursor.at length in
  cursor.at <- cursor.at + length;
  s

let read_ints cursor =
  Array.init (read_length cursor "array") (fun _ -> read_varint cursor)

let read_binary_field (type a) c (field : a field) : a =
  match field with
  | Int _ -> read_varint c
  | Str _ -> read_string c
  | Ints _ -> read_ints c
  | Opt_str _ -> (
      match next_byte c with
      | 0 -> None
      | 1 -> Some (read_string c)
      | b -> fail "bad option byte %d" b)
  | Decl -> (
      (* a pre-declaration frame ends where its fixed fields do *)
      if c.at >= String.length c.text then None
      else
        match next_byte c with
        | 1 ->
            let d_rates = read_ints c in
            let d_den = read_varint c in
            let d_bursts = read_ints c in
            Some { d_rates; d_den; d_bursts }
        | b -> fail "bad declaration marker %d" b)

let by_tag =
  Array.init 32 (fun tag -> List.find_opt (fun (Shape s) -> s.tag = tag) shapes)

let decode_payload tag payload =
  let c = { text = payload; at = 0 } in
  let read = { read = (fun field -> read_binary_field c field) } in
  match
    match if tag < Array.length by_tag then by_tag.(tag) else None with
    | None -> fail "unknown binary frame tag %d" tag
    | Some (Shape shape) -> shape.make (build read shape.fields)
  with
  | frame ->
      if c.at <> String.length payload then
        Error
          (Printf.sprintf "%d trailing byte(s) after binary frame"
             (String.length payload - c.at))
      else Ok frame
  | exception Decode_error message -> Error message

let decode_binary data =
  if String.length data < 7 then Error "truncated binary frame"
  else if not (data.[0] = magic0 && data.[1] = magic1) then
    Error "missing frame magic"
  else
    let b i = Char.code data.[i] in
    let length = (b 2 lsl 24) lor (b 3 lsl 16) lor (b 4 lsl 8) lor b 5 in
    if length > max_frame then
      Error (Printf.sprintf "frame longer than %d bytes" max_frame)
    else if String.length data <> 7 + length then
      Error
        (Printf.sprintf "length prefix %d does not match body length %d" length
           (String.length data - 7))
    else decode_payload (b 6) (String.sub data 7 length)

(* ---- framing ----

   /1 frames are "<byte length of JSON> <JSON>\n": length-delimited but
   still line-synced, so a reader that lost the length can resynchronize
   at the next newline, which is what lets the server answer [error] to
   garbage and keep the connection alive instead of tearing it down.
   /2 frames resynchronize at the magic pair (or a newline, so textual
   garbage still draws an immediate reply). *)

let frame_line json = Printf.sprintf "%d %s\n" (String.length json) json

let to_wire framing frame =
  match framing with
  | V1 -> frame_line (encode frame)
  | V2 -> encode_binary frame

type read_result = Frame of frame | Malformed of string | Eof

let find_newline chunk pos len =
  let rec go i =
    if i >= len then -1
    else if Bytes.unsafe_get chunk i = '\n' then i
    else go (i + 1)
  in
  go pos

(* Parse one complete /1 line (newline already stripped). *)
let parse_v1_line line =
  if String.length line > max_frame then
    Malformed (Printf.sprintf "frame longer than %d bytes" max_frame)
  else
    match String.index_opt line ' ' with
    | None -> Malformed "missing length prefix"
    | Some space -> (
        let prefix = String.sub line 0 space in
        let body =
          String.sub line (space + 1) (String.length line - space - 1)
        in
        match int_of_string_opt prefix with
        | None -> Malformed (Printf.sprintf "bad length prefix %S" prefix)
        | Some length when length <> String.length body ->
            Malformed
              (Printf.sprintf "length prefix %d does not match body length %d"
                 length (String.length body))
        | Some _ -> (
            match decode body with
            | Ok frame -> Frame frame
            | Error message -> Malformed message))

(* ---- incremental frame stream ----

   The one parser for both framings, server and client side alike. It
   accepts bytes as they arrive and says "need more" in between, so a
   readiness loop never makes a read(2) that would block, and a
   blocking client reads only when [next] has nothing left to give.
   The test suite holds it against a blocking pull-reader reference
   model: same frames, malformed reports (same messages), resync points
   and EOF handling over any byte sequence and any chunking. *)

module Stream = struct
  type state =
    | Idle  (* between frames *)
    | V1_discard
      (* over-long /1 line: drop bytes until the newline, then report
         [Malformed "frame longer than ..."] once for the whole line *)
    | V2_garbage of int
      (* skipping to newline / magic pair; the count of bytes skipped
         so far, reported in the malformed message *)
    | V2_payload of int * int  (* tag, remaining payload length *)

  type t = {
    http : bool; (* HTTP request heads, not frames *)
    mutable framing : framing;
    mutable buf : Bytes.t;
    mutable start : int;  (* first unconsumed byte *)
    mutable stop : int;  (* end of valid bytes *)
    mutable eof : bool;
    mutable scanned : int;  (* /1: prefix already scanned for '\n' *)
    mutable state : state;
    mutable fed : int;  (* total bytes ever fed *)
  }

  let create framing =
    {
      http = false;
      framing;
      buf = Bytes.create 4096;
      start = 0;
      stop = 0;
      eof = false;
      scanned = 0;
      state = Idle;
      fed = 0;
    }

  let create_http () = { (create V1) with http = true }
  let framing t = t.framing

  (* Framing switches happen between frames (the hello exchange), so any
     buffered bytes belong to the next frame and are reinterpreted under
     the new framing. *)
  let set_framing t framing =
    t.framing <- framing;
    t.scanned <- 0;
    t.state <- Idle

  let buffered t = t.stop - t.start
  let fed t = t.fed

  let feed t bytes off len =
    if len < 0 || off < 0 || off + len > Bytes.length bytes then
      invalid_arg "Wire.Stream.feed";
    if t.eof then invalid_arg "Wire.Stream.feed: after eof";
    if t.stop + len > Bytes.length t.buf then begin
      let live = t.stop - t.start in
      let need = live + len in
      if need <= Bytes.length t.buf && t.start > 0 then begin
        Bytes.blit t.buf t.start t.buf 0 live;
        t.start <- 0;
        t.stop <- live
      end
      else begin
        let capacity = ref (max 4096 (2 * Bytes.length t.buf)) in
        while !capacity < need do
          capacity := !capacity * 2
        done;
        let grown = Bytes.create !capacity in
        Bytes.blit t.buf t.start grown 0 live;
        t.buf <- grown;
        t.start <- 0;
        t.stop <- live
      end
    end;
    Bytes.blit bytes off t.buf t.stop len;
    t.stop <- t.stop + len;
    t.fed <- t.fed + len

  let feed_string t s = feed t (Bytes.unsafe_of_string s) 0 (String.length s)
  let feed_eof t = t.eof <- true

  (* Drop [n] consumed bytes off the front. *)
  let consume t n = t.start <- t.start + n

  let take t n =
    let s = Bytes.sub_string t.buf t.start n in
    consume t n;
    s

  let rec next_v1 t =
    match t.state with
    | V1_discard -> (
        match find_newline t.buf (t.start + t.scanned) t.stop with
        | -1 ->
            (* everything buffered is part of the over-long line *)
            consume t (buffered t);
            t.scanned <- 0;
            if t.eof then begin
              (* EOF ends the truncated line *)
              t.state <- Idle;
              Some
                (Malformed
                   (Printf.sprintf "frame longer than %d bytes" max_frame))
            end
            else None
        | nl ->
            consume t (nl + 1 - t.start);
            t.scanned <- 0;
            t.state <- Idle;
            Some
              (Malformed (Printf.sprintf "frame longer than %d bytes" max_frame))
        )
    | _ -> (
        match find_newline t.buf (t.start + t.scanned) t.stop with
        | -1 ->
            t.scanned <- buffered t;
            if t.scanned > max_frame then begin
              (* no newline within a frame-sized prefix: the line cannot
                 parse whatever follows, so stop buffering it *)
              t.state <- V1_discard;
              consume t t.scanned;
              t.scanned <- 0;
              next_v1 t
            end
            else if t.eof then
              if t.scanned = 0 then Some Eof
              else begin
                (* trailing newline-less line: parsed as a final line
                   at EOF *)
                let line = take t t.scanned in
                t.scanned <- 0;
                Some (parse_v1_line line)
              end
            else None
        | nl ->
            let line = take t (nl - t.start) in
            consume t 1;
            t.scanned <- 0;
            Some (parse_v1_line line))

  let rec next_v2 t =
    match t.state with
    | V1_discard -> assert false
    | V2_payload (tag, length) ->
        if buffered t >= length then begin
          let payload = take t length in
          t.state <- Idle;
          Some
            (match decode_payload tag payload with
            | Ok frame -> Frame frame
            | Error message -> Malformed message)
        end
        else if t.eof then Some Eof (* truncated payload *)
        else None
    | V2_garbage count ->
        (* stop after a newline (consumed) or before a magic pair (not
           consumed), so textual garbage draws its [error] without
           waiting for a frame that may never come; at EOF everything
           left is garbage *)
        let rec scan count =
          if t.start >= t.stop then
            if t.eof then begin
              t.state <- Idle;
              Some
                (Malformed
                   (Printf.sprintf "not a frame: skipped %d garbage byte(s)"
                      count))
            end
            else begin
              t.state <- V2_garbage count;
              None
            end
          else
            let c = Bytes.get t.buf t.start in
            if c = '\n' then begin
              consume t 1;
              t.state <- Idle;
              Some
                (Malformed
                   (Printf.sprintf "not a frame: skipped %d garbage byte(s)"
                      (count + 1)))
            end
            else if c = magic0 then
              if t.start + 1 < t.stop then
                if Bytes.get t.buf (t.start + 1) = magic1 then begin
                  t.state <- Idle;
                  Some
                    (Malformed
                       (Printf.sprintf "not a frame: skipped %d garbage byte(s)"
                          count))
                end
                else begin
                  consume t 1;
                  scan (count + 1)
                end
              else if t.eof then begin
                (* dangling magic0 at EOF is garbage *)
                consume t 1;
                scan (count + 1)
              end
              else begin
                t.state <- V2_garbage count;
                None
              end
            else begin
              consume t 1;
              scan (count + 1)
            end
        in
        scan count
    | Idle ->
        let avail = buffered t in
        if avail < 2 then
          if t.eof then begin
            (* 0 or 1 dangling bytes before EOF: nothing decodable *)
            consume t avail;
            Some Eof
          end
          else None
        else if
          not
            (Bytes.get t.buf t.start = magic0
            && Bytes.get t.buf (t.start + 1) = magic1)
        then begin
          t.state <- V2_garbage 0;
          next_v2 t
        end
        else if avail < 7 then
          if t.eof then begin
            consume t avail;
            Some Eof
          end
          else None
        else begin
          let b i = Char.code (Bytes.get t.buf (t.start + i)) in
          let length =
            (b 2 lsl 24) lor (b 3 lsl 16) lor (b 4 lsl 8) lor b 5
          in
          let tag = b 6 in
          consume t 7;
          if length > max_frame then
            Some
              (Malformed
                 (Printf.sprintf "frame longer than %d bytes" max_frame))
          else begin
            t.state <- V2_payload (tag, length);
            next_v2 t
          end
        end

  let http_head_max = 8 * 1024

  (* An HTTP request head ends at its first empty line, or where EOF
     cuts it short; [scanned] is where its current line starts. The
     metrics exposition is all an HTTP connection serves, so every head
     reads as a [Metrics] request. *)
  let rec next_http t =
    let line = t.start + t.scanned in
    let request () =
      consume t (buffered t);
      t.scanned <- 0;
      Some (Frame (Metrics { slow = 0 }))
    in
    match find_newline t.buf line (min t.stop (t.start + http_head_max)) with
    | -1 when buffered t >= http_head_max ->
        consume t (buffered t);
        t.scanned <- 0;
        Some (Malformed "request head over 8 KiB")
    | -1 when not t.eof -> None
    | -1 -> if buffered t = 0 then Some Eof else request ()
    | nl when nl = line || (nl = line + 1 && Bytes.get t.buf line = '\r') ->
        request ()
    | nl ->
        t.scanned <- nl + 1 - t.start;
        next_http t

  let next t =
    if t.http then next_http t
    else match t.framing with V1 -> next_v1 t | V2 -> next_v2 t
end
