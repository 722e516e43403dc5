module Json = Rrs_sim.Event_sink.Json

let version = "rrs-wire/1"
let version2 = "rrs-wire/2"

(* One frame must fit one line; longer payloads (snapshot docs) are close
   to but far under this in practice — raise deliberately if they grow. *)
let max_frame = 4 * 1024 * 1024

type framing = V1 | V2

(* A declared workload: per-color token-bucket rate numerators over one
   shared denominator, plus optional per-color bursts ([||] = all
   zero). Optional on [Open] (admission) and [Feed] (re-declaration) in
   both framings: /1 encodes three extra JSON fields old servers
   ignore, /2 appends a presence-marked group old frames simply lack
   (an undeclared frame is byte-identical to the pre-declaration
   encoding). *)
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

(* ---- rrs-wire/1 encoding: flat JSON objects ---- *)

let ints array =
  let buffer = Buffer.create 32 in
  Buffer.add_char buffer '[';
  Array.iteri
    (fun i v ->
      if i > 0 then Buffer.add_char buffer ',';
      Buffer.add_string buffer (string_of_int v))
    array;
  Buffer.add_char buffer ']';
  Buffer.contents buffer

let decl_suffix = function
  | None -> ""
  | Some { d_rates; d_den; d_bursts } ->
      Printf.sprintf ",\"rates\":%s,\"rate_den\":%d%s" (ints d_rates) d_den
        (if Array.length d_bursts = 0 then ""
         else Printf.sprintf ",\"bursts\":%s" (ints d_bursts))

let encode = function
  | Hello { client_version } ->
      Printf.sprintf "{\"type\":\"hello\",\"version\":%s}"
        (Json.escape client_version)
  | Open
      { session; policy; delta; bounds; n; speed; horizon; queue_limit; decl }
    ->
      Printf.sprintf
        "{\"type\":\"open\",\"session\":%s,\"policy\":%s,\"delta\":%d,\
         \"bounds\":%s,\"n\":%d,\"speed\":%d,\"horizon\":%d,\
         \"queue_limit\":%d%s}"
        (Json.escape session) (Json.escape policy) delta (ints bounds) n speed
        horizon queue_limit (decl_suffix decl)
  | Feed { session; colors; counts; decl } ->
      Printf.sprintf
        "{\"type\":\"feed\",\"session\":%s,\"colors\":%s,\"counts\":%s%s}"
        (Json.escape session) (ints colors) (ints counts) (decl_suffix decl)
  | Step { session; rounds } ->
      Printf.sprintf "{\"type\":\"step\",\"session\":%s,\"rounds\":%d}"
        (Json.escape session) rounds
  | Stats { session } ->
      Printf.sprintf "{\"type\":\"stats\",\"session\":%s}"
        (Json.escape session)
  | Snapshot { session; path } ->
      Printf.sprintf "{\"type\":\"snapshot\",\"session\":%s%s}"
        (Json.escape session)
        (match path with
        | None -> ""
        | Some p -> Printf.sprintf ",\"path\":%s" (Json.escape p))
  | Close { session } ->
      Printf.sprintf "{\"type\":\"close\",\"session\":%s}"
        (Json.escape session)
  | Metrics { slow } ->
      Printf.sprintf "{\"type\":\"metrics\",\"slow\":%d}" slow
  | Hello_ok { server_version; server; uptime_s } ->
      Printf.sprintf
        "{\"type\":\"hello_ok\",\"version\":%s,\"server\":%s,\"uptime_s\":%d}"
        (Json.escape server_version) (Json.escape server) uptime_s
  | Opened { session; round } ->
      Printf.sprintf "{\"type\":\"opened\",\"session\":%s,\"round\":%d}"
        (Json.escape session) round
  | Fed { session; accepted; buffered } ->
      Printf.sprintf
        "{\"type\":\"fed\",\"session\":%s,\"accepted\":%d,\"buffered\":%d}"
        (Json.escape session) accepted buffered
  | Shed { session; shed; buffered; limit } ->
      Printf.sprintf
        "{\"type\":\"shed\",\"session\":%s,\"shed\":%d,\"buffered\":%d,\
         \"limit\":%d}"
        (Json.escape session) shed buffered limit
  | Stepped { session; round; pending; cost; reconfigs; drops; execs } ->
      Printf.sprintf
        "{\"type\":\"stepped\",\"session\":%s,\"round\":%d,\"pending\":%d,\
         \"cost\":%d,\"reconfigs\":%d,\"drops\":%d,\"execs\":%d}"
        (Json.escape session) round pending cost reconfigs drops execs
  | Stats_ok
      { session; round; pending; buffered; fed; accepted; shed; execs; drops;
        reconfigs; failed; cost; wire; bytes_in; bytes_out } ->
      Printf.sprintf
        "{\"type\":\"stats_ok\",\"session\":%s,\"round\":%d,\"pending\":%d,\
         \"buffered\":%d,\"fed\":%d,\"accepted\":%d,\"shed\":%d,\
         \"execs\":%d,\"drops\":%d,\"reconfigs\":%d,\"failed\":%d,\
         \"cost\":%d,\"wire\":%d,\"bytes_in\":%d,\"bytes_out\":%d}"
        (Json.escape session) round pending buffered fed accepted shed execs
        drops reconfigs failed cost wire bytes_in bytes_out
  | Snapshotted { session; path; doc } ->
      Printf.sprintf "{\"type\":\"snapshotted\",\"session\":%s%s%s}"
        (Json.escape session)
        (match path with
        | None -> ""
        | Some p -> Printf.sprintf ",\"path\":%s" (Json.escape p))
        (match doc with
        | None -> ""
        | Some d -> Printf.sprintf ",\"doc\":%s" (Json.escape d))
  | Closed { session; cost } ->
      Printf.sprintf "{\"type\":\"closed\",\"session\":%s,\"cost\":%d}"
        (Json.escape session) cost
  | Metrics_ok { doc; slow } ->
      Printf.sprintf "{\"type\":\"metrics_ok\",\"doc\":%s,\"slow\":%s}"
        (Json.escape doc) (Json.escape slow)
  | Admission_reject { session; color; demand; supply; message } ->
      Printf.sprintf
        "{\"type\":\"admission_rejected\",\"session\":%s,\"color\":%d,\
         \"demand\":%d,\"supply\":%d,\"message\":%s}"
        (Json.escape session) color demand supply (Json.escape message)
  | Error_frame { message } ->
      Printf.sprintf "{\"type\":\"error\",\"message\":%s}"
        (Json.escape message)

(* ---- rrs-wire/1 decoding ---- *)

let opt_str_field fields key =
  match List.assoc_opt key fields with
  | None -> None
  | Some (Json.Vstr value) -> Some value
  | Some _ ->
      raise (Json.Parse_error (Printf.sprintf "field %S: expected string" key))

let opt_ints_field fields key =
  match List.assoc_opt key fields with
  | None -> [||]
  | Some (Json.Vints values) -> values
  | Some _ ->
      raise
        (Json.Parse_error (Printf.sprintf "field %S: expected int array" key))

(* The declaration is carried by three optional fields keyed on
   ["rate_den"]; frames without it decode as undeclared. *)
let decl_of_fields fields =
  match List.assoc_opt "rate_den" fields with
  | None -> None
  | Some (Json.Vint d_den) ->
      Some
        {
          d_rates = Json.ints_field fields "rates";
          d_den;
          d_bursts = opt_ints_field fields "bursts";
        }
  | Some _ ->
      raise (Json.Parse_error "field \"rate_den\": expected int")

let decode text =
  match Json.parse_fields text with
  | exception Json.Parse_error message -> Error message
  | fields -> (
      try
        let session () = Json.str_field fields "session" in
        match Json.str_field fields "type" with
        | "hello" ->
            Ok (Hello { client_version = Json.str_field fields "version" })
        | "open" ->
            Ok
              (Open
                 {
                   session = session ();
                   policy = Json.str_field fields "policy";
                   delta = Json.int_field fields "delta";
                   bounds = Json.ints_field fields "bounds";
                   n = Json.int_field fields "n";
                   speed = Json.opt_int_field fields "speed" ~default:1;
                   horizon = Json.opt_int_field fields "horizon" ~default:0;
                   queue_limit =
                     Json.opt_int_field fields "queue_limit" ~default:0;
                   decl = decl_of_fields fields;
                 })
        | "feed" ->
            Ok
              (Feed
                 {
                   session = session ();
                   colors = Json.ints_field fields "colors";
                   counts = Json.ints_field fields "counts";
                   decl = decl_of_fields fields;
                 })
        | "step" ->
            Ok
              (Step
                 {
                   session = session ();
                   rounds = Json.opt_int_field fields "rounds" ~default:1;
                 })
        | "stats" -> Ok (Stats { session = session () })
        | "snapshot" ->
            Ok
              (Snapshot
                 { session = session (); path = opt_str_field fields "path" })
        | "close" -> Ok (Close { session = session () })
        | "metrics" ->
            Ok (Metrics { slow = Json.opt_int_field fields "slow" ~default:0 })
        | "hello_ok" ->
            (* [server]/[uptime_s] are optional so pre-observability
               transcripts still decode. *)
            Ok
              (Hello_ok
                 {
                   server_version = Json.str_field fields "version";
                   server =
                     Option.value (opt_str_field fields "server") ~default:"";
                   uptime_s = Json.opt_int_field fields "uptime_s" ~default:0;
                 })
        | "opened" ->
            Ok
              (Opened
                 { session = session (); round = Json.int_field fields "round" })
        | "fed" ->
            Ok
              (Fed
                 {
                   session = session ();
                   accepted = Json.int_field fields "accepted";
                   buffered = Json.int_field fields "buffered";
                 })
        | "shed" ->
            Ok
              (Shed
                 {
                   session = session ();
                   shed = Json.int_field fields "shed";
                   buffered = Json.int_field fields "buffered";
                   limit = Json.int_field fields "limit";
                 })
        | "stepped" ->
            Ok
              (Stepped
                 {
                   session = session ();
                   round = Json.int_field fields "round";
                   pending = Json.int_field fields "pending";
                   cost = Json.int_field fields "cost";
                   reconfigs = Json.int_field fields "reconfigs";
                   drops = Json.int_field fields "drops";
                   execs = Json.int_field fields "execs";
                 })
        | "stats_ok" ->
            Ok
              (Stats_ok
                 {
                   session = session ();
                   round = Json.int_field fields "round";
                   pending = Json.int_field fields "pending";
                   buffered = Json.int_field fields "buffered";
                   fed = Json.int_field fields "fed";
                   accepted = Json.int_field fields "accepted";
                   shed = Json.int_field fields "shed";
                   execs = Json.int_field fields "execs";
                   drops = Json.int_field fields "drops";
                   reconfigs = Json.int_field fields "reconfigs";
                   failed = Json.int_field fields "failed";
                   cost = Json.int_field fields "cost";
                   wire = Json.opt_int_field fields "wire" ~default:0;
                   bytes_in = Json.opt_int_field fields "bytes_in" ~default:0;
                   bytes_out =
                     Json.opt_int_field fields "bytes_out" ~default:0;
                 })
        | "snapshotted" ->
            Ok
              (Snapshotted
                 {
                   session = session ();
                   path = opt_str_field fields "path";
                   doc = opt_str_field fields "doc";
                 })
        | "closed" ->
            Ok
              (Closed
                 { session = session (); cost = Json.int_field fields "cost" })
        | "metrics_ok" ->
            Ok
              (Metrics_ok
                 {
                   doc = Json.str_field fields "doc";
                   slow =
                     Option.value (opt_str_field fields "slow") ~default:"";
                 })
        | "admission_rejected" ->
            Ok
              (Admission_reject
                 {
                   session = session ();
                   color = Json.int_field fields "color";
                   demand = Json.int_field fields "demand";
                   supply = Json.int_field fields "supply";
                   message = Json.str_field fields "message";
                 })
        | "error" ->
            Ok (Error_frame { message = Json.str_field fields "message" })
        | other -> Error (Printf.sprintf "unknown frame type %S" other)
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

let tag_of_frame = function
  | Hello _ -> 1
  | Open _ -> 2
  | Feed _ -> 3
  | Step _ -> 4
  | Stats _ -> 5
  | Snapshot _ -> 6
  | Close _ -> 7
  | Metrics _ -> 8
  | Hello_ok _ -> 17
  | Opened _ -> 18
  | Fed _ -> 19
  | Shed _ -> 20
  | Stepped _ -> 21
  | Stats_ok _ -> 22
  | Snapshotted _ -> 23
  | Closed _ -> 24
  | Error_frame _ -> 25
  | Metrics_ok _ -> 26
  | Admission_reject _ -> 27

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

let add_opt_string buffer = function
  | None -> Buffer.add_char buffer '\000'
  | Some s ->
      Buffer.add_char buffer '\001';
      add_string buffer s

(* Appended only when declared, so an undeclared frame stays
   byte-identical to its pre-declaration encoding and old decoders never
   see trailing bytes. *)
let add_opt_decl buffer = function
  | None -> ()
  | Some { d_rates; d_den; d_bursts } ->
      Buffer.add_char buffer '\001';
      add_ints buffer d_rates;
      add_varint buffer d_den;
      add_ints buffer d_bursts

let add_payload buffer = function
  | Hello { client_version } -> add_string buffer client_version
  | Open
      { session; policy; delta; bounds; n; speed; horizon; queue_limit; decl }
    ->
      add_string buffer session;
      add_string buffer policy;
      add_varint buffer delta;
      add_ints buffer bounds;
      add_varint buffer n;
      add_varint buffer speed;
      add_varint buffer horizon;
      add_varint buffer queue_limit;
      add_opt_decl buffer decl
  | Feed { session; colors; counts; decl } ->
      add_string buffer session;
      add_ints buffer colors;
      add_ints buffer counts;
      add_opt_decl buffer decl
  | Step { session; rounds } ->
      add_string buffer session;
      add_varint buffer rounds
  | Stats { session } -> add_string buffer session
  | Snapshot { session; path } ->
      add_string buffer session;
      add_opt_string buffer path
  | Close { session } -> add_string buffer session
  | Metrics { slow } -> add_varint buffer slow
  | Hello_ok { server_version; server; uptime_s } ->
      add_string buffer server_version;
      add_string buffer server;
      add_varint buffer uptime_s
  | Opened { session; round } ->
      add_string buffer session;
      add_varint buffer round
  | Fed { session; accepted; buffered } ->
      add_string buffer session;
      add_varint buffer accepted;
      add_varint buffer buffered
  | Shed { session; shed; buffered; limit } ->
      add_string buffer session;
      add_varint buffer shed;
      add_varint buffer buffered;
      add_varint buffer limit
  | Stepped { session; round; pending; cost; reconfigs; drops; execs } ->
      add_string buffer session;
      add_varint buffer round;
      add_varint buffer pending;
      add_varint buffer cost;
      add_varint buffer reconfigs;
      add_varint buffer drops;
      add_varint buffer execs
  | Stats_ok
      { session; round; pending; buffered; fed; accepted; shed; execs; drops;
        reconfigs; failed; cost; wire; bytes_in; bytes_out } ->
      add_string buffer session;
      add_varint buffer round;
      add_varint buffer pending;
      add_varint buffer buffered;
      add_varint buffer fed;
      add_varint buffer accepted;
      add_varint buffer shed;
      add_varint buffer execs;
      add_varint buffer drops;
      add_varint buffer reconfigs;
      add_varint buffer failed;
      add_varint buffer cost;
      add_varint buffer wire;
      add_varint buffer bytes_in;
      add_varint buffer bytes_out
  | Snapshotted { session; path; doc } ->
      add_string buffer session;
      add_opt_string buffer path;
      add_opt_string buffer doc
  | Closed { session; cost } ->
      add_string buffer session;
      add_varint buffer cost
  | Metrics_ok { doc; slow } ->
      add_string buffer doc;
      add_string buffer slow
  | Admission_reject { session; color; demand; supply; message } ->
      add_string buffer session;
      add_varint buffer color;
      add_varint buffer demand;
      add_varint buffer supply;
      add_string buffer message
  | Error_frame { message } -> add_string buffer message

let encode_binary frame =
  let payload = Buffer.create 64 in
  add_payload payload frame;
  let length = Buffer.length payload in
  let out = Buffer.create (length + 7) in
  Buffer.add_char out magic0;
  Buffer.add_char out magic1;
  Buffer.add_char out (Char.chr ((length lsr 24) land 0xff));
  Buffer.add_char out (Char.chr ((length lsr 16) land 0xff));
  Buffer.add_char out (Char.chr ((length lsr 8) land 0xff));
  Buffer.add_char out (Char.chr (length land 0xff));
  Buffer.add_char out (Char.chr (tag_of_frame frame));
  Buffer.add_buffer out payload;
  Buffer.contents out

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

let read_varint cursor =
  let rec go shift acc =
    if shift > 63 then fail "varint too long";
    let byte = next_byte cursor in
    let acc = acc lor ((byte land 0x7f) lsl shift) in
    if byte land 0x80 = 0 then acc else go (shift + 7) acc
  in
  let z = go 0 0 in
  (z lsr 1) lxor (-(z land 1))

let read_string cursor =
  let length = read_varint cursor in
  if length < 0 || cursor.at + length > String.length cursor.text then
    fail "bad string length %d" length;
  let s = String.sub cursor.text cursor.at length in
  cursor.at <- cursor.at + length;
  s

let read_ints cursor =
  let count = read_varint cursor in
  if count < 0 || count > String.length cursor.text - cursor.at then
    fail "bad array length %d" count;
  Array.init count (fun _ -> read_varint cursor)

let read_opt_string cursor =
  match next_byte cursor with
  | 0 -> None
  | 1 -> Some (read_string cursor)
  | b -> fail "bad option byte %d" b

(* Present only when the sender declared: a pre-declaration frame ends
   exactly where the fixed fields do, so a cursor at payload end means
   [None]. This is what keeps the extension optional in /2 without a
   version bump. *)
let read_opt_decl c =
  if c.at >= String.length c.text then None
  else
    match next_byte c with
    | 1 ->
        let d_rates = read_ints c in
        let d_den = read_varint c in
        let d_bursts = read_ints c in
        Some { d_rates; d_den; d_bursts }
    | b -> fail "bad declaration marker %d" b

let decode_payload tag payload =
  let c = { text = payload; at = 0 } in
  let str () = read_string c in
  let int () = read_varint c in
  let ints () = read_ints c in
  match
    match tag with
    | 1 -> Hello { client_version = str () }
    | 2 ->
        let session = str () in
        let policy = str () in
        let delta = int () in
        let bounds = ints () in
        let n = int () in
        let speed = int () in
        let horizon = int () in
        let queue_limit = int () in
        let decl = read_opt_decl c in
        Open
          { session; policy; delta; bounds; n; speed; horizon; queue_limit;
            decl }
    | 3 ->
        let session = str () in
        let colors = ints () in
        let counts = ints () in
        let decl = read_opt_decl c in
        Feed { session; colors; counts; decl }
    | 4 ->
        let session = str () in
        let rounds = int () in
        Step { session; rounds }
    | 5 -> Stats { session = str () }
    | 6 ->
        let session = str () in
        let path = read_opt_string c in
        Snapshot { session; path }
    | 7 -> Close { session = str () }
    | 8 -> Metrics { slow = int () }
    | 17 ->
        let server_version = str () in
        let server = str () in
        let uptime_s = int () in
        Hello_ok { server_version; server; uptime_s }
    | 18 ->
        let session = str () in
        let round = int () in
        Opened { session; round }
    | 19 ->
        let session = str () in
        let accepted = int () in
        let buffered = int () in
        Fed { session; accepted; buffered }
    | 20 ->
        let session = str () in
        let shed = int () in
        let buffered = int () in
        let limit = int () in
        Shed { session; shed; buffered; limit }
    | 21 ->
        let session = str () in
        let round = int () in
        let pending = int () in
        let cost = int () in
        let reconfigs = int () in
        let drops = int () in
        let execs = int () in
        Stepped { session; round; pending; cost; reconfigs; drops; execs }
    | 22 ->
        let session = str () in
        let round = int () in
        let pending = int () in
        let buffered = int () in
        let fed = int () in
        let accepted = int () in
        let shed = int () in
        let execs = int () in
        let drops = int () in
        let reconfigs = int () in
        let failed = int () in
        let cost = int () in
        let wire = int () in
        let bytes_in = int () in
        let bytes_out = int () in
        Stats_ok
          { session; round; pending; buffered; fed; accepted; shed; execs;
            drops; reconfigs; failed; cost; wire; bytes_in; bytes_out }
    | 23 ->
        let session = str () in
        let path = read_opt_string c in
        let doc = read_opt_string c in
        Snapshotted { session; path; doc }
    | 24 ->
        let session = str () in
        let cost = int () in
        Closed { session; cost }
    | 25 -> Error_frame { message = str () }
    | 26 ->
        let doc = str () in
        let slow = str () in
        Metrics_ok { doc; slow }
    | 27 ->
        let session = str () in
        let color = int () in
        let demand = int () in
        let supply = int () in
        let message = str () in
        Admission_reject { session; color; demand; supply; message }
    | tag -> fail "unknown binary frame tag %d" tag
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
      framing;
      buf = Bytes.create 4096;
      start = 0;
      stop = 0;
      eof = false;
      scanned = 0;
      state = Idle;
      fed = 0;
    }

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

  let next t = match t.framing with V1 -> next_v1 t | V2 -> next_v2 t
end
