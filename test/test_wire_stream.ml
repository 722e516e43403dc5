(* Suite for Wire.Stream, the one wire parser (the event loop's and
   Client's): over any byte sequence — valid frames, garbage,
   truncations — its results must not depend on how the bytes were split
   into feed chunks, and must equal what the blocking pull-reader
   reference model ([Pull_reader]) emits over the same bytes. *)

module Wire = Rrs_server.Wire

let show_result = Test_server.show_result

let show_results rs = String.concat " | " (List.map show_result rs)

let check_equivalent framing data chunks =
  let expected = Pull_reader.results framing data in
  let got = Test_server.stream_results framing data chunks in
  if expected <> got then
    Alcotest.failf "reader/stream divergence on %S:\n  reader: %s\n  stream: %s"
      data (show_results expected) (show_results got);
  true

(* ---- qcheck: random frame/garbage soups under random chunking ---- *)

let gen_soup framing =
  QCheck2.Gen.(
    let gen_segment =
      oneof
        [
          (let* f = Test_server.gen_frame in
           return (Wire.to_wire framing f));
          (* truncated frame: the bytes of a real frame, cut short *)
          (let* f = Test_server.gen_frame in
           let w = Wire.to_wire framing f in
           let* k = int_range 0 (String.length w - 1) in
           return (String.sub w 0 k));
          (* printable garbage (newline-free) and lone newlines *)
          string_size ~gen:(char_range ' ' '~') (int_range 0 20);
          return "\n";
          (* arbitrary bytes, magic pairs included *)
          string_size ~gen:char (int_range 0 12);
        ]
    in
    let* segments = list_size (int_range 0 5) gen_segment in
    let* chunks = list_size (int_range 0 40) (int_range 1 50) in
    return (String.concat "" segments, chunks))

let prop_equiv framing name =
  QCheck2.Test.make ~name ~count:400 (gen_soup framing)
    (fun (data, chunks) -> check_equivalent framing data chunks)

let prop_equiv_v1 =
  prop_equiv Wire.V1 "stream: /1 equivalent to pull reader under any chunking"

let prop_equiv_v2 =
  prop_equiv Wire.V2 "stream: /2 equivalent to pull reader under any chunking"

(* Chunking invariance on its own: the whole input in one feed, one byte
   per feed, and random chunks all yield the same results. *)
let prop_chunking framing name =
  QCheck2.Test.make ~name ~count:400 (gen_soup framing)
    (fun (data, chunks) ->
      let whole = Test_server.stream_results framing data [] in
      let bytewise =
        Test_server.stream_results framing data (List.init (String.length data) (fun _ -> 1))
      in
      let random = Test_server.stream_results framing data chunks in
      if whole <> bytewise || whole <> random then
        Alcotest.failf
          "chunking changed the results on %S:\n  whole:  %s\n  bytes:  %s\n  random: %s"
          data (show_results whole) (show_results bytewise)
          (show_results random);
      true)

let prop_chunking_v1 =
  prop_chunking Wire.V1 "stream: /1 results invariant under chunking"

let prop_chunking_v2 =
  prop_chunking Wire.V2 "stream: /2 results invariant under chunking"

(* ---- directed: the paths random soups are too small to hit ---- *)

(* A /1 line longer than max_frame must report the same single
   malformed result and resynchronize at the same newline. *)
let test_v1_overlong () =
  let line = String.make (Wire.max_frame + 10) 'a' ^ "\n" in
  let tail = Wire.to_wire Wire.V1 (Wire.Close { session = "s" }) in
  ignore (check_equivalent Wire.V1 (line ^ tail) [ 1000; 9_000_000 ])

(* A /2 header whose length field exceeds max_frame: malformed after the
   header, then resync over whatever follows. *)
let test_v2_oversize_header () =
  let b = Buffer.create 32 in
  Buffer.add_char b '\xF2';
  Buffer.add_char b 'R';
  let length = Wire.max_frame + 1 in
  Buffer.add_char b (Char.chr ((length lsr 24) land 0xff));
  Buffer.add_char b (Char.chr ((length lsr 16) land 0xff));
  Buffer.add_char b (Char.chr ((length lsr 8) land 0xff));
  Buffer.add_char b (Char.chr (length land 0xff));
  Buffer.add_char b '\x05';
  Buffer.add_string b "trailing junk\n";
  Buffer.add_string b (Wire.to_wire Wire.V2 (Wire.Stats { session = "s" }));
  ignore (check_equivalent Wire.V2 (Buffer.contents b) [ 3; 3; 3; 3 ])

(* The hello negotiation: one /1 frame, switch, then /2 traffic — the
   stream must honor set_framing at the frame boundary even when the /2
   bytes were already buffered before the switch. *)
let test_framing_switch () =
  let hello = Wire.to_wire Wire.V1 (Wire.Hello { client_version = "rrs/2" }) in
  let after =
    Wire.to_wire Wire.V2 (Wire.Step { session = "s"; rounds = 3 })
    ^ Wire.to_wire Wire.V2 (Wire.Close { session = "s" })
  in
  let data = hello ^ after in
  let s = Wire.Stream.create Wire.V1 in
  (* everything arrives in one burst, before the switch *)
  Wire.Stream.feed_string s data;
  Wire.Stream.feed_eof s;
  (match Wire.Stream.next s with
  | Some (Wire.Frame (Wire.Hello _)) -> ()
  | other ->
      Alcotest.failf "expected hello, got %s"
        (match other with None -> "None" | Some r -> show_result r));
  Wire.Stream.set_framing s Wire.V2;
  (match Wire.Stream.next s with
  | Some (Wire.Frame (Wire.Step { rounds = 3; _ })) -> ()
  | _ -> Alcotest.fail "expected step after switch");
  (match Wire.Stream.next s with
  | Some (Wire.Frame (Wire.Close _)) -> ()
  | _ -> Alcotest.fail "expected close after switch");
  match Wire.Stream.next s with
  | Some Wire.Eof -> ()
  | _ -> Alcotest.fail "expected eof"

(* Byte-at-a-time chunking across a multi-frame conversation. *)
let test_byte_at_a_time () =
  List.iter
    (fun framing ->
      let data =
        String.concat ""
          (List.map (Wire.to_wire framing)
             [
               Wire.Open
                 {
                   session = "s";
                   policy = "static";
                   delta = 2;
                   bounds = [| 3; 3 |];
                   n = 6;
                   speed = 1;
                   horizon = 100;
                   queue_limit = 16;
                   decl = None;
                 };
               Wire.Feed
                 { session = "s"; colors = [| 0 |]; counts = [| 2 |]; decl = None };
               Wire.Step { session = "s"; rounds = 5 };
               Wire.Close { session = "s" };
             ])
      in
      ignore
        (check_equivalent framing data
           (List.init (String.length data) (fun _ -> 1))))
    [ Wire.V1; Wire.V2 ]

(* The HTTP stream: a request head is one [Metrics] request, however
   it is split, and not before its empty line; EOF answers a cut head;
   a head past 8 KiB is refused. *)
let test_http_heads () =
  let results data ~eof =
    let s = Wire.Stream.create_http () in
    let out = ref [] in
    String.iter
      (fun c ->
        Wire.Stream.feed_string s (String.make 1 c);
        Option.iter (fun r -> out := r :: !out) (Wire.Stream.next s))
      data;
    if eof then begin
      Wire.Stream.feed_eof s;
      Option.iter (fun r -> out := r :: !out) (Wire.Stream.next s)
    end;
    List.rev_map show_result !out |> String.concat " | "
  in
  let request = show_result (Wire.Frame (Wire.Metrics { slow = 0 })) in
  let check name expected data ~eof =
    Alcotest.(check string) name expected (results data ~eof)
  in
  check "crlf head" request "GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n" ~eof:false;
  check "bare lf head" request "GET / HTTP/1.0\n\n" ~eof:false;
  check "no empty line yet" "" "GET / HTTP/1.1\r\nHost: x\r\n" ~eof:false;
  check "eof answers a cut head" request "GET / HTTP/1.1\r\nHo" ~eof:true;
  check "eof alone" (show_result Wire.Eof) "" ~eof:true;
  check "over 8 KiB"
    (show_result (Wire.Malformed "request head over 8 KiB"))
    ("GET /" ^ String.make (8 * 1024) 'a')
    ~eof:false

let prop = QCheck_alcotest.to_alcotest

let suite =
  [
    ( "wire-stream",
      [
        prop prop_equiv_v1;
        prop prop_equiv_v2;
        prop prop_chunking_v1;
        prop prop_chunking_v2;
        Alcotest.test_case "overlong /1 line resyncs identically" `Quick
          test_v1_overlong;
        Alcotest.test_case "oversize /2 length resyncs identically" `Quick
          test_v2_oversize_header;
        Alcotest.test_case "framing switch at frame boundary" `Quick
          test_framing_switch;
        Alcotest.test_case "byte-at-a-time conversation" `Quick
          test_byte_at_a_time;
        Alcotest.test_case "http request heads" `Quick test_http_heads;
      ] );
  ]
