(* The exact wire bytes of every frame type in both framings, frozen
   from the hand-written codecs that preceded the field schema. Each
   entry is a frame, its /1 line (without the terminating newline) and
   its /2 bytes in hex. The entries cover both sides of every optional
   field (no declaration, a declaration with and without bursts,
   [path]/[doc] absent and present), negative ints, [min_int] and
   [max_int], and strings that need escaping. *)

module Wire = Rrs_server.Wire

let frames : (Wire.frame * string * string) list =
  [
    ( Wire.Hello { client_version = "rrs-wire/2" },
      {|39 {"type":"hello","version":"rrs-wire/2"}|},
      "f2 52 00 00 00 0b 01 14 72 72 73 2d 77 69 72 65 2f 32" );
    ( Wire.Hello { client_version = "q\"b\\n\nr\rt\tc\001\195\169" },
      {|53 {"type":"hello","version":"q\"b\\n\nr\rt\tc\u0001é"}|},
      "f2 52 00 00 00 0f 01 1c 71 22 62 5c 6e 0a 72 0d 74 09 63 01 c3 a9" );
    ( Wire.Open { session = "s1"; policy = "dlru-edf"; delta = 4; bounds = [| 2; 3; 4; 6 |]; n = 8; speed = 1; horizon = 0; queue_limit = 0; decl = None },
      {|123 {"type":"open","session":"s1","policy":"dlru-edf","delta":4,"bounds":[2,3,4,6],"n":8,"speed":1,"horizon":0,"queue_limit":0}|},
      "f2 52 00 00 00 16 02 04 73 31 10 64 6c 72 75 2d 65 64 66 08 08 04 06 08 0c 10 02 00 00" );
    ( Wire.Open { session = "s1"; policy = "dlru-edf"; delta = 4; bounds = [| 2; 3; 4; 6 |]; n = 8; speed = 1; horizon = 0; queue_limit = 0; decl = Some { Wire.d_rates = [| 3; 0; 7 |]; d_den = 4; d_bursts = [||] } },
      {|152 {"type":"open","session":"s1","policy":"dlru-edf","delta":4,"bounds":[2,3,4,6],"n":8,"speed":1,"horizon":0,"queue_limit":0,"rates":[3,0,7],"rate_den":4}|},
      "f2 52 00 00 00 1d 02 04 73 31 10 64 6c 72 75 2d 65 64 66 08 08 04 06 08 0c 10 02 00 00 01 06 06 00 0e 08 00" );
    ( Wire.Open { session = "s1"; policy = "dlru-edf"; delta = 4; bounds = [| 2; 3; 4; 6 |]; n = 8; speed = 1; horizon = 0; queue_limit = 0; decl = Some { Wire.d_rates = [| 1; 2 |]; d_den = 1000; d_bursts = [| 5; 0 |] } },
      {|168 {"type":"open","session":"s1","policy":"dlru-edf","delta":4,"bounds":[2,3,4,6],"n":8,"speed":1,"horizon":0,"queue_limit":0,"rates":[1,2],"rate_den":1000,"bursts":[5,0]}|},
      "f2 52 00 00 00 1f 02 04 73 31 10 64 6c 72 75 2d 65 64 66 08 08 04 06 08 0c 10 02 00 00 01 04 02 04 d0 0f 04 0a 00" );
    ( Wire.Open { session = "q\"b\\n\nr\rt\tc\001\195\169"; policy = "dlru-edf"; delta = (-1); bounds = [| min_int; (-5); 0; max_int |]; n = max_int; speed = min_int; horizon = (-7); queue_limit = max_int; decl = Some { Wire.d_rates = [| max_int; (-1) |]; d_den = min_int; d_bursts = [| min_int; 9 |] } },
      {|339 {"type":"open","session":"q\"b\\n\nr\rt\tc\u0001é","policy":"dlru-edf","delta":-1,"bounds":[-4611686018427387904,-5,0,4611686018427387903],"n":4611686018427387903,"speed":-4611686018427387904,"horizon":-7,"queue_limit":4611686018427387903,"rates":[4611686018427387903,-1],"rate_den":-4611686018427387904,"bursts":[-4611686018427387904,9]}|},
      "f2 52 00 00 00 6a 02 1c 71 22 62 5c 6e 0a 72 0d 74 09 63 01 c3 a9 10 64 6c 72 75 2d 65 64 66 01 08 ff ff ff ff ff ff ff ff 7f 09 00 fe ff ff ff ff ff ff ff 7f fe ff ff ff ff ff ff ff 7f ff ff ff ff ff ff ff ff 7f 0d fe ff ff ff ff ff ff ff 7f 01 04 fe ff ff ff ff ff ff ff 7f 01 ff ff ff ff ff ff ff ff 7f 04 ff ff ff ff ff ff ff ff 7f 12" );
    ( Wire.Feed { session = "s1"; colors = [| 0; 1; 3 |]; counts = [| 2; 1; 5 |]; decl = None },
      {|64 {"type":"feed","session":"s1","colors":[0,1,3],"counts":[2,1,5]}|},
      "f2 52 00 00 00 0b 03 04 73 31 06 00 02 06 06 04 02 0a" );
    ( Wire.Feed { session = "s1"; colors = [||]; counts = [||]; decl = Some { Wire.d_rates = [| 3; 0; 7 |]; d_den = 4; d_bursts = [||] } },
      {|83 {"type":"feed","session":"s1","colors":[],"counts":[],"rates":[3,0,7],"rate_den":4}|},
      "f2 52 00 00 00 0c 03 04 73 31 00 00 01 06 06 00 0e 08 00" );
    ( Wire.Feed { session = "s1"; colors = [| 2 |]; counts = [| (-3) |]; decl = Some { Wire.d_rates = [| 1; 2 |]; d_den = 1000; d_bursts = [| 5; 0 |] } },
      {|102 {"type":"feed","session":"s1","colors":[2],"counts":[-3],"rates":[1,2],"rate_den":1000,"bursts":[5,0]}|},
      "f2 52 00 00 00 10 03 04 73 31 02 04 02 05 01 04 02 04 d0 0f 04 0a 00" );
    ( Wire.Step { session = "s1"; rounds = 1 },
      {|41 {"type":"step","session":"s1","rounds":1}|},
      "f2 52 00 00 00 04 04 04 73 31 02" );
    ( Wire.Step { session = "q\"b\\n\nr\rt\tc\001\195\169"; rounds = min_int },
      {|82 {"type":"step","session":"q\"b\\n\nr\rt\tc\u0001é","rounds":-4611686018427387904}|},
      "f2 52 00 00 00 18 04 1c 71 22 62 5c 6e 0a 72 0d 74 09 63 01 c3 a9 ff ff ff ff ff ff ff ff 7f" );
    ( Wire.Stats { session = "w" },
      {|30 {"type":"stats","session":"w"}|},
      "f2 52 00 00 00 02 05 02 77" );
    ( Wire.Stats { session = "" },
      {|29 {"type":"stats","session":""}|},
      "f2 52 00 00 00 01 05 00" );
    ( Wire.Snapshot { session = "s1"; path = None },
      {|34 {"type":"snapshot","session":"s1"}|},
      "f2 52 00 00 00 04 06 04 73 31 00" );
    ( Wire.Snapshot { session = "s1"; path = Some "s1.snap" },
      {|51 {"type":"snapshot","session":"s1","path":"s1.snap"}|},
      "f2 52 00 00 00 0c 06 04 73 31 01 0e 73 31 2e 73 6e 61 70" );
    ( Wire.Close { session = "s1" },
      {|31 {"type":"close","session":"s1"}|},
      "f2 52 00 00 00 03 07 04 73 31" );
    ( Wire.Metrics { slow = 0 },
      {|27 {"type":"metrics","slow":0}|},
      "f2 52 00 00 00 01 08 00" );
    ( Wire.Metrics { slow = max_int },
      {|45 {"type":"metrics","slow":4611686018427387903}|},
      "f2 52 00 00 00 09 08 fe ff ff ff ff ff ff ff 7f" );
    ( Wire.Hello_ok { server_version = "rrs-wire/1"; server = "rrs/1.0.0"; uptime_s = 12 },
      {|77 {"type":"hello_ok","version":"rrs-wire/1","server":"rrs/1.0.0","uptime_s":12}|},
      "f2 52 00 00 00 16 11 14 72 72 73 2d 77 69 72 65 2f 31 12 72 72 73 2f 31 2e 30 2e 30 18" );
    ( Wire.Hello_ok { server_version = "q\"b\\n\nr\rt\tc\001\195\169"; server = ""; uptime_s = min_int },
      {|100 {"type":"hello_ok","version":"q\"b\\n\nr\rt\tc\u0001é","server":"","uptime_s":-4611686018427387904}|},
      "f2 52 00 00 00 19 11 1c 71 22 62 5c 6e 0a 72 0d 74 09 63 01 c3 a9 00 ff ff ff ff ff ff ff ff 7f" );
    ( Wire.Opened { session = "s1"; round = 0 },
      {|42 {"type":"opened","session":"s1","round":0}|},
      "f2 52 00 00 00 04 12 04 73 31 00" );
    ( Wire.Fed { session = "s1"; accepted = 8; buffered = 8 },
      {|55 {"type":"fed","session":"s1","accepted":8,"buffered":8}|},
      "f2 52 00 00 00 05 13 04 73 31 10 10" );
    ( Wire.Shed { session = "s1"; shed = 9; buffered = 4; limit = 6 },
      {|62 {"type":"shed","session":"s1","shed":9,"buffered":4,"limit":6}|},
      "f2 52 00 00 00 06 14 04 73 31 12 08 0c" );
    ( Wire.Stepped { session = "s1"; round = 2; pending = 3; cost = 17; reconfigs = 3; drops = 1; execs = 4 },
      {|99 {"type":"stepped","session":"s1","round":2,"pending":3,"cost":17,"reconfigs":3,"drops":1,"execs":4}|},
      "f2 52 00 00 00 09 15 04 73 31 04 06 22 06 02 08" );
    ( Wire.Stepped { session = "s1"; round = max_int; pending = min_int; cost = (-1); reconfigs = 0; drops = max_int; execs = min_int },
      {|173 {"type":"stepped","session":"s1","round":4611686018427387903,"pending":-4611686018427387904,"cost":-1,"reconfigs":0,"drops":4611686018427387903,"execs":-4611686018427387904}|},
      "f2 52 00 00 00 29 15 04 73 31 fe ff ff ff ff ff ff ff 7f ff ff ff ff ff ff ff ff 7f 01 00 fe ff ff ff ff ff ff ff 7f ff ff ff ff ff ff ff ff 7f" );
    ( Wire.Stats_ok { session = "s1"; round = 2; pending = 3; buffered = 0; fed = 8; accepted = 8; shed = 0; execs = 4; drops = 1; reconfigs = 3; failed = 0; cost = 17; wire = 2; bytes_in = 120; bytes_out = 96 },
      {|193 {"type":"stats_ok","session":"s1","round":2,"pending":3,"buffered":0,"fed":8,"accepted":8,"shed":0,"execs":4,"drops":1,"reconfigs":3,"failed":0,"cost":17,"wire":2,"bytes_in":120,"bytes_out":96}|},
      "f2 52 00 00 00 13 16 04 73 31 04 06 00 10 10 00 08 02 06 00 22 04 f0 01 c0 01" );
    ( Wire.Stats_ok { session = "q\"b\\n\nr\rt\tc\001\195\169"; round = min_int; pending = max_int; buffered = (-1); fed = 1; accepted = (-2); shed = 3; execs = (-4); drops = 5; reconfigs = (-6); failed = 7; cost = (-8); wire = 0; bytes_in = max_int; bytes_out = min_int },
      {|290 {"type":"stats_ok","session":"q\"b\\n\nr\rt\tc\u0001é","round":-4611686018427387904,"pending":4611686018427387903,"buffered":-1,"fed":1,"accepted":-2,"shed":3,"execs":-4,"drops":5,"reconfigs":-6,"failed":7,"cost":-8,"wire":0,"bytes_in":4611686018427387903,"bytes_out":-4611686018427387904}|},
      "f2 52 00 00 00 3d 16 1c 71 22 62 5c 6e 0a 72 0d 74 09 63 01 c3 a9 ff ff ff ff ff ff ff ff 7f fe ff ff ff ff ff ff ff 7f 01 02 03 06 07 0a 0b 0e 0f 00 fe ff ff ff ff ff ff ff 7f ff ff ff ff ff ff ff ff 7f" );
    ( Wire.Snapshotted { session = "s1"; path = None; doc = None },
      {|37 {"type":"snapshotted","session":"s1"}|},
      "f2 52 00 00 00 05 17 04 73 31 00 00" );
    ( Wire.Snapshotted { session = "s1"; path = Some "s1.snap"; doc = None },
      {|54 {"type":"snapshotted","session":"s1","path":"s1.snap"}|},
      "f2 52 00 00 00 0d 17 04 73 31 01 0e 73 31 2e 73 6e 61 70 00" );
    ( Wire.Snapshotted { session = "s1"; path = None; doc = Some "{\"schema\":\"rrs-snap/2\"}\n{\"type\":\"end\"}\n" },
      {|95 {"type":"snapshotted","session":"s1","doc":"{\"schema\":\"rrs-snap/2\"}\n{\"type\":\"end\"}\n"}|},
      "f2 52 00 00 00 2d 17 04 73 31 00 01 4e 7b 22 73 63 68 65 6d 61 22 3a 22 72 72 73 2d 73 6e 61 70 2f 32 22 7d 0a 7b 22 74 79 70 65 22 3a 22 65 6e 64 22 7d 0a" );
    ( Wire.Snapshotted { session = "q\"b\\n\nr\rt\tc\001\195\169"; path = Some "q\"b\\n\nr\rt\tc\001\195\169"; doc = Some "" },
      {|102 {"type":"snapshotted","session":"q\"b\\n\nr\rt\tc\u0001é","path":"q\"b\\n\nr\rt\tc\u0001é","doc":""}|},
      "f2 52 00 00 00 21 17 1c 71 22 62 5c 6e 0a 72 0d 74 09 63 01 c3 a9 01 1c 71 22 62 5c 6e 0a 72 0d 74 09 63 01 c3 a9 01 00" );
    ( Wire.Closed { session = "s1"; cost = 17 },
      {|42 {"type":"closed","session":"s1","cost":17}|},
      "f2 52 00 00 00 04 18 04 73 31 22" );
    ( Wire.Metrics_ok { doc = "{\"requests_total\":3}"; slow = "" },
      {|62 {"type":"metrics_ok","doc":"{\"requests_total\":3}","slow":""}|},
      "f2 52 00 00 00 16 1a 28 7b 22 72 65 71 75 65 73 74 73 5f 74 6f 74 61 6c 22 3a 33 7d 00" );
    ( Wire.Metrics_ok { doc = "{}"; slow = "{\"kind\":\"step\",\"us\":900}\n{\"kind\":\"feed\",\"us\":700}\n" },
      {|106 {"type":"metrics_ok","doc":"{}","slow":"{\"kind\":\"step\",\"us\":900}\n{\"kind\":\"feed\",\"us\":700}\n"}|},
      "f2 52 00 00 00 36 1a 04 7b 7d 64 7b 22 6b 69 6e 64 22 3a 22 73 74 65 70 22 2c 22 75 73 22 3a 39 30 30 7d 0a 7b 22 6b 69 6e 64 22 3a 22 66 65 65 64 22 2c 22 75 73 22 3a 37 30 30 7d 0a" );
    ( Wire.Admission_reject { session = "s1"; color = (-1); demand = 12; supply = 8; message = "aggregate capacity" },
      {|109 {"type":"admission_rejected","session":"s1","color":-1,"demand":12,"supply":8,"message":"aggregate capacity"}|},
      "f2 52 00 00 00 19 1b 04 73 31 01 18 10 24 61 67 67 72 65 67 61 74 65 20 63 61 70 61 63 69 74 79" );
    ( Wire.Admission_reject { session = "q\"b\\n\nr\rt\tc\001\195\169"; color = max_int; demand = min_int; supply = (-3); message = "q\"b\\n\nr\rt\tc\001\195\169" },
      {|173 {"type":"admission_rejected","session":"q\"b\\n\nr\rt\tc\u0001é","color":4611686018427387903,"demand":-4611686018427387904,"supply":-3,"message":"q\"b\\n\nr\rt\tc\u0001é"}|},
      "f2 52 00 00 00 31 1b 1c 71 22 62 5c 6e 0a 72 0d 74 09 63 01 c3 a9 fe ff ff ff ff ff ff ff 7f ff ff ff ff ff ff ff ff 7f 05 1c 71 22 62 5c 6e 0a 72 0d 74 09 63 01 c3 a9" );
    ( Wire.Error_frame { message = "no such session \"x\"" },
      {|50 {"type":"error","message":"no such session \"x\""}|},
      "f2 52 00 00 00 14 19 26 6e 6f 20 73 75 63 68 20 73 65 73 73 69 6f 6e 20 22 78 22" );
    ( Wire.Error_frame { message = "q\"b\\n\nr\rt\tc\001\195\169" },
      {|53 {"type":"error","message":"q\"b\\n\nr\rt\tc\u0001é"}|},
      "f2 52 00 00 00 0f 19 1c 71 22 62 5c 6e 0a 72 0d 74 09 63 01 c3 a9" );
  ]

(* /1 inputs that leave out defaulted keys, and the frame each decodes
   to. *)
let defaulted : (string * Wire.frame) list =
  [
    ( {|{"type":"open","session":"s1","policy":"dlru-edf","delta":4,"bounds":[2,3],"n":8,"horizon":5,"queue_limit":6}|},
      Wire.Open { session = "s1"; policy = "dlru-edf"; delta = 4; bounds = [| 2; 3 |]; n = 8; speed = 1; horizon = 5; queue_limit = 6; decl = None } );
    ( {|{"type":"open","session":"s1","policy":"dlru-edf","delta":4,"bounds":[2,3],"n":8,"speed":2,"queue_limit":6}|},
      Wire.Open { session = "s1"; policy = "dlru-edf"; delta = 4; bounds = [| 2; 3 |]; n = 8; speed = 2; horizon = 0; queue_limit = 6; decl = None } );
    ( {|{"type":"open","session":"s1","policy":"dlru-edf","delta":4,"bounds":[2,3],"n":8,"speed":2,"horizon":5}|},
      Wire.Open { session = "s1"; policy = "dlru-edf"; delta = 4; bounds = [| 2; 3 |]; n = 8; speed = 2; horizon = 5; queue_limit = 0; decl = None } );
    ( {|{"type":"open","session":"s1","policy":"dlru-edf","delta":4,"bounds":[2,3],"n":8}|},
      Wire.Open { session = "s1"; policy = "dlru-edf"; delta = 4; bounds = [| 2; 3 |]; n = 8; speed = 1; horizon = 0; queue_limit = 0; decl = None } );
    ( {|{"type":"step","session":"s1"}|},
      Wire.Step { session = "s1"; rounds = 1 } );
    ( {|{"type":"metrics"}|},
      Wire.Metrics { slow = 0 } );
    ( {|{"type":"hello_ok","version":"rrs-wire/1","uptime_s":3}|},
      Wire.Hello_ok { server_version = "rrs-wire/1"; server = ""; uptime_s = 3 } );
    ( {|{"type":"hello_ok","version":"rrs-wire/1","server":"rrs/1.0.0"}|},
      Wire.Hello_ok { server_version = "rrs-wire/1"; server = "rrs/1.0.0"; uptime_s = 0 } );
    ( {|{"type":"hello_ok","version":"rrs-wire/1"}|},
      Wire.Hello_ok { server_version = "rrs-wire/1"; server = ""; uptime_s = 0 } );
    ( {|{"type":"stats_ok","session":"s1","round":1,"pending":2,"buffered":3,"fed":4,"accepted":5,"shed":6,"execs":7,"drops":8,"reconfigs":9,"failed":10,"cost":11,"bytes_in":13,"bytes_out":14}|},
      Wire.Stats_ok { session = "s1"; round = 1; pending = 2; buffered = 3; fed = 4; accepted = 5; shed = 6; execs = 7; drops = 8; reconfigs = 9; failed = 10; cost = 11; wire = 0; bytes_in = 13; bytes_out = 14 } );
    ( {|{"type":"stats_ok","session":"s1","round":1,"pending":2,"buffered":3,"fed":4,"accepted":5,"shed":6,"execs":7,"drops":8,"reconfigs":9,"failed":10,"cost":11,"wire":12,"bytes_out":14}|},
      Wire.Stats_ok { session = "s1"; round = 1; pending = 2; buffered = 3; fed = 4; accepted = 5; shed = 6; execs = 7; drops = 8; reconfigs = 9; failed = 10; cost = 11; wire = 12; bytes_in = 0; bytes_out = 14 } );
    ( {|{"type":"stats_ok","session":"s1","round":1,"pending":2,"buffered":3,"fed":4,"accepted":5,"shed":6,"execs":7,"drops":8,"reconfigs":9,"failed":10,"cost":11,"wire":12,"bytes_in":13}|},
      Wire.Stats_ok { session = "s1"; round = 1; pending = 2; buffered = 3; fed = 4; accepted = 5; shed = 6; execs = 7; drops = 8; reconfigs = 9; failed = 10; cost = 11; wire = 12; bytes_in = 13; bytes_out = 0 } );
    ( {|{"type":"stats_ok","session":"s1","round":1,"pending":2,"buffered":3,"fed":4,"accepted":5,"shed":6,"execs":7,"drops":8,"reconfigs":9,"failed":10,"cost":11}|},
      Wire.Stats_ok { session = "s1"; round = 1; pending = 2; buffered = 3; fed = 4; accepted = 5; shed = 6; execs = 7; drops = 8; reconfigs = 9; failed = 10; cost = 11; wire = 0; bytes_in = 0; bytes_out = 0 } );
    ( {|{"type":"metrics_ok","doc":"{}"}|},
      Wire.Metrics_ok { doc = "{}"; slow = "" } );
  ]
