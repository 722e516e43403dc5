exception Timeout

type t = {
  fd : Unix.file_descr;
  stream : Wire.Stream.t; (* reply parser; holds the negotiated framing *)
  chunk : Bytes.t; (* read(2) landing buffer *)
  mutable sent : int;
  mutable broken : bool; (* parser state indeterminate; reconnect *)
}

let chunk_size = 64 * 1024

let connect_fd fd =
  {
    fd;
    stream = Wire.Stream.create Wire.V1;
    chunk = Bytes.create chunk_size;
    sent = 0;
    broken = false;
  }

(* Connect with an optional budget: non-blocking connect + poll on
   writability + SO_ERROR, so a black-holed host cannot stall the CLI
   for the kernel's default timeout. *)
let connect_within ms address =
  let fd, in_progress = Net.start_connect address in
  (try
     if in_progress then begin
       let timeout = float_of_int (max ms 1) /. 1000. in
       match Poll.wait_writable ~timeout fd with
       | `Timeout -> raise (Unix.Unix_error (Unix.ETIMEDOUT, "connect", ""))
       | `Writable -> (
           match Unix.getsockopt_error fd with
           | None -> ()
           | Some error -> raise (Unix.Unix_error (error, "connect", "")))
     end;
     Unix.clear_nonblock fd
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise e);
  connect_fd fd

let connect ?timeout_ms address =
  match timeout_ms with
  | Some ms -> connect_within ms address
  | None ->
      let fd, sockaddr = Net.socket_for address in
      (try Unix.connect fd sockaddr
       with e ->
         (try Unix.close fd with Unix.Unix_error _ -> ());
         raise e);
      connect_fd fd

let try_connect ?timeout_ms address =
  match connect ?timeout_ms address with
  | t -> Ok t
  | exception Unix.Unix_error (e, _, _) -> Error (Net.cannot_connect address e)
  | exception Failure message -> Error message

let wire_version t =
  match Wire.Stream.framing t.stream with Wire.V1 -> 1 | Wire.V2 -> 2

let bytes_sent t = t.sent
let bytes_received t = Wire.Stream.fed t.stream
let is_broken t = t.broken

let write_all t data =
  t.sent <- t.sent + String.length data;
  ignore (Unix.write_substring t.fd data 0 (String.length data))

let send t frame = write_all t (Wire.to_wire (Wire.Stream.framing t.stream) frame)

let send_raw t line =
  if line = "" || line.[String.length line - 1] <> '\n' then
    write_all t (line ^ "\n")
  else write_all t line

(* Wait for readability with what is left of the deadline; client fds
   can sit above FD_SETSIZE when thousands of connections are open, so
   this is poll-based. *)
let rec wait_readable fd until =
  let remaining = until -. Unix.gettimeofday () in
  if remaining <= 0. then raise Timeout
  else
    match Poll.wait_readable ~timeout:remaining fd with
    | `Timeout -> raise Timeout
    | `Readable -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait_readable fd until

(* Parse what is already buffered first; only when the stream needs
   more bytes wait (blocking, or bounded by the deadline) and feed one
   read(2) worth. A reply that fits the chunk costs one read. *)
let rec next_result t until =
  match Wire.Stream.next t.stream with
  | Some result -> result
  | None ->
      Option.iter (wait_readable t.fd) until;
      (match Unix.read t.fd t.chunk 0 chunk_size with
      | 0 -> Wire.Stream.feed_eof t.stream
      | k -> Wire.Stream.feed t.stream t.chunk 0 k);
      next_result t until

let read_reply ?deadline_ms t =
  let until =
    Option.map
      (fun ms -> Unix.gettimeofday () +. (float_of_int ms /. 1000.))
      deadline_ms
  in
  match next_result t until with
  | Wire.Frame frame -> Ok frame
  | Wire.Malformed message -> Error ("malformed reply: " ^ message)
  | Wire.Eof ->
      t.broken <- true;
      Error "connection closed by server"
  | exception Timeout ->
      (* A partial frame may sit in the buffer; the connection can no
         longer be trusted for framing. *)
      t.broken <- true;
      Error
        (Printf.sprintf "deadline exceeded after %d ms"
           (Option.value deadline_ms ~default:0))
  | exception Unix.Unix_error (e, _, _) ->
      t.broken <- true;
      Error ("connection lost: " ^ Unix.error_message e)

let call ?deadline_ms t frame =
  match send t frame with
  | () -> read_reply ?deadline_ms t
  | exception Unix.Unix_error (e, _, _) ->
      t.broken <- true;
      Error ("connection lost: " ^ Unix.error_message e)

let hello ~wire =
  match wire with
  | 1 -> Ok (Wire.Hello { client_version = Wire.version })
  | 2 -> Ok (Wire.Hello { client_version = Wire.version2 })
  | v -> Error (Printf.sprintf "unsupported wire version %d (want 1 or 2)" v)

let hello_outcome ~wire reply =
  let wanted = if wire = 2 then Wire.version2 else Wire.version in
  match reply with
  | Ok (Wire.Hello_ok { server_version; _ }) when server_version = wanted ->
      Ok ()
  | Ok (Wire.Hello_ok { server_version; _ }) ->
      Error
        (Printf.sprintf "server negotiated %S instead of %S" server_version
           wanted)
  | Ok (Wire.Error_frame { message }) -> Error message
  | Ok frame -> Error ("unexpected hello reply: " ^ Wire.encode frame)
  | Error _ as e -> e

let negotiate t ~wire =
  match hello ~wire with
  | Error _ as e -> e
  | Ok frame -> (
      match hello_outcome ~wire (call t frame) with
      | Ok () ->
          (* The server switched right after its hello_ok; follow it. *)
          if wire = 2 then Wire.Stream.set_framing t.stream Wire.V2;
          Ok ()
      | Error _ as e -> e)

let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()

(* Probe every address still refusing, then sleep a step that starts at
   0.25 ms and doubles up to 50 ms: a listener that binds a few ms in is
   seen within about that long again, and one that never binds costs a
   hundred connects over five seconds, not thousands. *)
let await_listening ?(deadline_ms = 5_000) ?(between = ignore) addresses =
  let until = Unix.gettimeofday () +. (float_of_int deadline_ms /. 1000.) in
  let probe address =
    match try_connect ~timeout_ms:200 address with
    | Ok t ->
        close t;
        None
    | Error message -> Some (address, message)
  in
  let rec wait step addresses =
    match List.filter_map probe addresses with
    | [] -> Ok ()
    | refused ->
        let remaining = until -. Unix.gettimeofday () in
        if remaining <= 0. then Error refused
        else begin
          between ();
          Unix.sleepf (Float.min step remaining);
          wait (Float.min (2. *. step) 0.05) (List.map fst refused)
        end
  in
  wait 0.00025 addresses

(* ---- retry policy ---- *)

(* Retries are safe for requests whose replay cannot change server
   state: [hello], [stats], [metrics]. Everything session-mutating
   ([open]/[feed]/[step]/[snapshot]/[close]) is retried only when the
   connection attempt itself failed — before any request bytes hit the
   socket — so a round is never applied twice. *)
let idempotent = function
  | Wire.Hello _ | Wire.Stats _ | Wire.Metrics _ -> true
  | Wire.Open _ | Wire.Feed _ | Wire.Step _ | Wire.Snapshot _ | Wire.Close _
    ->
      false
  | _ -> false

type retry = {
  r_attempts : int; (* total attempts, >= 1 *)
  r_base_ms : int;
  r_max_ms : int;
  r_jitter : int -> int; (* bound -> jitter in [0, bound) *)
  r_sleep_ms : int -> unit;
}

let default_sleep_ms ms = if ms > 0 then Unix.sleepf (float_of_int ms /. 1000.)

let seeded_jitter seed =
  let state = Random.State.make [| seed |] in
  fun bound -> if bound <= 0 then 0 else Random.State.int state bound

let retry_policy ?(attempts = 3) ?(base_ms = 50) ?(max_ms = 2_000) ?seed
    ?(sleep_ms = default_sleep_ms) () =
  if attempts < 1 then invalid_arg "Client.retry_policy: attempts < 1";
  let jitter =
    match seed with
    | Some seed -> seeded_jitter seed
    | None -> fun bound -> if bound <= 0 then 0 else Random.int bound
  in
  {
    r_attempts = attempts;
    r_base_ms = max base_ms 1;
    r_max_ms = max max_ms base_ms;
    r_jitter = jitter;
    r_sleep_ms = sleep_ms;
  }

let no_retry = { (retry_policy ~attempts:1 ()) with r_sleep_ms = ignore }

(* Exponential backoff with jitter: after failed attempt [n] (1-based),
   sleep capped-double(base, n) plus up to half that again. Advances the
   jitter stream, so sequences are reproducible from a seed. *)
let backoff_ms retry ~attempt =
  let doubled = retry.r_base_ms * (1 lsl min (max (attempt - 1) 0) 16) in
  let capped = min doubled retry.r_max_ms in
  capped + retry.r_jitter ((capped / 2) + 1)

(* ---- resilient endpoint ----

   A reconnecting wrapper around one server address: per-call deadline,
   bounded retry under the policy above, lazy (re)connection with the
   negotiated framing. *)

module Endpoint = struct
  type conn = t

  type nonrec t = {
    address : Server.address;
    wire : int;
    timeout_ms : int option;
    retry : retry;
    mutable conn : conn option;
    (* Wire bytes of connections already dropped: the endpoint's
       totals must accumulate across reconnects, not reset with each
       new connection. *)
    mutable sent_closed : int;
    mutable received_closed : int;
  }

  let create ?timeout_ms ?(retry = no_retry) ?(wire = 1) address =
    { address; wire; timeout_ms; retry; conn = None;
      sent_closed = 0; received_closed = 0 }

  let drop t =
    match t.conn with
    | Some c ->
        t.sent_closed <- t.sent_closed + bytes_sent c;
        t.received_closed <- t.received_closed + bytes_received c;
        close c;
        t.conn <- None
    | None -> ()

  let bytes_sent t =
    t.sent_closed
    + match t.conn with Some c -> bytes_sent c | None -> 0

  let bytes_received t =
    t.received_closed
    + match t.conn with Some c -> bytes_received c | None -> 0

  let connection t =
    match t.conn with
    | Some c when not c.broken -> Ok c
    | _ -> (
        drop t;
        match try_connect ?timeout_ms:t.timeout_ms t.address with
        | Error _ as e -> e
        | Ok c -> (
            if t.wire = 1 then begin
              t.conn <- Some c;
              Ok c
            end
            else
              match negotiate c ~wire:t.wire with
              | Ok () ->
                  t.conn <- Some c;
                  Ok c
              | Error message ->
                  close c;
                  Error message))

  let call t frame =
    let retry_after_send = idempotent frame in
    let rec go attempt =
      let retry_or_fail error =
        if attempt >= t.retry.r_attempts then Error error
        else begin
          t.retry.r_sleep_ms (backoff_ms t.retry ~attempt);
          go (attempt + 1)
        end
      in
      match connection t with
      (* No request bytes were written: safe to retry any frame. *)
      | Error message -> retry_or_fail message
      | Ok c -> (
          match call ?deadline_ms:t.timeout_ms c frame with
          | Ok reply -> Ok reply
          | Error message ->
              drop t;
              if retry_after_send then retry_or_fail message
              else
                Error (message ^ " (not retried: request may have applied)"))
    in
    go 1

  let close = drop
end
