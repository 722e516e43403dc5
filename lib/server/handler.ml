(* The per-frame handler shared by [Server] and [Router]: everything
   between "the event loop parsed a result" and "the reply is queued"
   that does not depend on what the frame asks for. The two callers
   differ only in their [handle] function, their identity and their
   reply cap, so they account for frames in exactly the same way. *)

module Clock = Rrs_obs.Clock

type outcome =
  | Reply of Wire.frame
  | Pending
  | Off_loop of (unit -> unit -> Wire.frame)

type 'a state = {
  span : Metrics.span;
  mutable in_mark : int; (* Event_loop.bytes_in at the last frame end *)
  mutable pending : Wire.frame option; (* the request still owed a reply *)
  mutable started : int64; (* when its handling began *)
  handler : 'a t;
  ext : 'a;
}

and 'a t = {
  role : string;
  id : string;
  max_wire : int;
  max_reply : int;
  metrics : Metrics.t;
  handle : 'a state Event_loop.conn -> Wire.frame -> outcome;
}

(* One reused span per connection: the tracing hot path allocates
   nothing per request. *)
let state handler ext =
  {
    span = Metrics.span ();
    in_mark = 0;
    pending = None;
    started = 0L;
    handler;
    ext;
  }

let ext st = st.ext

(* The hello exchange doubles as framing negotiation: a [hello_ok]
   naming [rrs-wire/2] (when allowed) switches the connection to the
   binary framing right after it goes out in the old one (see
   [handle_event]). It also surfaces the peer's identity and uptime. *)
let hello_reply t client_version =
  let hello_ok server_version =
    Wire.Hello_ok
      { server_version; server = t.id; uptime_s = Metrics.uptime_s t.metrics }
  in
  if client_version = Wire.version then hello_ok Wire.version
  else if client_version = Wire.version2 && t.max_wire >= 2 then
    hello_ok Wire.version2
  else
    Wire.Error_frame
      {
        message =
          Printf.sprintf "unsupported wire version %S (this %s speaks %s)"
            client_version t.role
            (if t.max_wire >= 2 then Wire.version ^ " and " ^ Wire.version2
             else Wire.version);
      }

(* A reply longer than [max_reply] (<= [Wire.max_frame]) is
   un-receivable: the peer's parser rejects any frame over its cap as
   malformed, so writing one — an inline snapshot of a session with a
   deep history, say — would cost the peer its reply. Answer a clean
   [error] naming the limit instead; the connection (and the session)
   survives, and the snapshot is still reachable through the file
   path. *)
let reply_bytes ~max_reply framing reply =
  let bytes = Wire.to_wire framing reply in
  if String.length bytes <= max_reply then bytes
  else
    Wire.to_wire framing
      (Wire.Error_frame
         {
           message =
             Printf.sprintf
               "reply frame of %d bytes exceeds the %d-byte frame limit; \
                request the snapshot to a file (snapshot with a path) \
                instead"
               (String.length bytes) max_reply;
         })

let us_between t0 t1 = Int64.to_int (Int64.div (Int64.sub t1 t0) 1000L)

(* Cap, frame and queue one reply; the event loop writes straight to
   the socket when the connection's outbound buffer is empty. *)
let send t conn span framing reply handled =
  let data = reply_bytes ~max_reply:t.max_reply framing reply in
  Event_loop.send conn data;
  span.Metrics.s_bytes_out <- String.length data;
  span.Metrics.s_write_us <- us_between handled (Clock.now_ns ())

(* Account for, send and record the reply to [frame]. *)
let complete st conn frame reply =
  let t = st.handler and span = st.span in
  let handled = Clock.now_ns () in
  span.Metrics.s_handle_us <- us_between st.started handled;
  (match reply with
  | Wire.Error_frame _ | Wire.Admission_reject _ -> span.Metrics.s_error <- true
  | Wire.Stepped _ -> (
      match frame with
      | Wire.Step { rounds; _ } -> span.Metrics.s_rounds <- max rounds 1
      | _ -> ())
  | Wire.Shed { shed; _ } -> span.Metrics.s_shed <- shed
  | _ -> ());
  send t conn span (Event_loop.framing conn) reply handled;
  (* The hello reply went out in the framing the hello arrived in;
     only now does the connection switch. *)
  (match (frame, reply) with
  | Wire.Hello _, Wire.Hello_ok { server_version; _ } ->
      Event_loop.set_framing conn
        (if server_version = Wire.version2 then Wire.V2 else Wire.V1)
  | _ -> ());
  Metrics.record t.metrics span

(* A bug in frame handling must cost this request, not the process:
   fail the frame, keep the connection. *)
let internal_error t e =
  Slog.error ~event:"handler_raised"
    [ ("role", t.role); ("exn", Printexc.to_string e) ];
  Wire.Error_frame { message = "internal error: " ^ Printexc.to_string e }

let finish conn reply =
  let st = Event_loop.data conn in
  match st.pending with
  | None -> ()
  | Some frame ->
      st.pending <- None;
      complete st conn frame reply

(* One complete inbound result (frame or malformed report — the loop
   never hands over Eof), handled on the loop that read it. *)
let handle_event conn result =
  let st = Event_loop.data conn in
  let t = st.handler and span = st.span in
  let framing = Event_loop.framing conn in
  Metrics.reset_span span;
  span.Metrics.s_wire <- (match framing with Wire.V1 -> 1 | Wire.V2 -> 2);
  st.started <- Clock.now_ns ();
  let bytes_in_now = Event_loop.bytes_in conn in
  span.Metrics.s_bytes_in <- bytes_in_now - st.in_mark;
  st.in_mark <- bytes_in_now;
  match result with
  | Wire.Eof -> ()
  | Wire.Malformed message ->
      send t conn span framing (Wire.Error_frame { message }) (Clock.now_ns ());
      Metrics.record_malformed t.metrics span
  | Wire.Frame (Wire.Hello { client_version } as frame) ->
      span.Metrics.s_kind <- Metrics.kind_index frame;
      complete st conn frame (hello_reply t client_version)
  | Wire.Frame frame -> (
      span.Metrics.s_kind <- Metrics.kind_index frame;
      (match frame with
      | Wire.Open { session; _ } | Wire.Feed { session; _ }
      | Wire.Step { session; _ } | Wire.Stats { session; _ }
      | Wire.Snapshot { session; _ } | Wire.Close { session; _ } ->
          span.Metrics.s_session <- session
      | _ -> ());
      st.pending <- Some frame;
      match t.handle conn frame with
      | Reply reply -> finish conn reply
      | Pending -> ()
      | Off_loop job ->
          Event_loop.off_loop conn job (fun result ->
              finish conn
                (match result with
                | Ok resume -> ( try resume () with e -> internal_error t e)
                | Error e -> internal_error t e))
      | exception e -> finish conn (internal_error t e))
