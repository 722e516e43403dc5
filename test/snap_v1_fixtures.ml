(* Documents in the legacy rrs-snap/1 format, frozen as the last release
   that wrote it produced them. Nothing writes /1 any more; these keep
   the read-only upgrade path under test. *)

(* The stepper of [test_server]'s mid-run restore case: seeded uniform
   workload (seed 7, 5 colors, delta 3, load 1.0, rate limited), n = 5,
   dlru-edf, snapshotted after round 16. *)
let midrun =
  {|{"schema":"rrs-snap/1","name":"uniform(c=5,delta=3,load=1.00,seed=7)","delta":3,"n":5,"speed":1,"horizon":41,"bounds":[4,1,8,1,8],"policy":"dlru-edf","round":17,"accepted":75}
{"type":"arrival","round":0,"colors":[0,1,2,4],"counts":[4,1,8,5]}
{"type":"arrival","round":1,"colors":[1],"counts":[1]}
{"type":"arrival","round":2,"colors":[1],"counts":[1]}
{"type":"arrival","round":3,"colors":[1],"counts":[1]}
{"type":"arrival","round":4,"colors":[0,1],"counts":[1,1]}
{"type":"arrival","round":5,"colors":[1,3],"counts":[1,1]}
{"type":"arrival","round":6,"colors":[1],"counts":[1]}
{"type":"arrival","round":7,"colors":[3],"counts":[1]}
{"type":"arrival","round":8,"colors":[0,2,4],"counts":[4,8,3]}
{"type":"arrival","round":9,"colors":[1,3],"counts":[1,1]}
{"type":"arrival","round":11,"colors":[1],"counts":[1]}
{"type":"arrival","round":12,"colors":[0,1],"counts":[4,1]}
{"type":"arrival","round":13,"colors":[3],"counts":[1]}
{"type":"arrival","round":14,"colors":[1],"counts":[1]}
{"type":"arrival","round":15,"colors":[1,3],"counts":[1,1]}
{"type":"arrival","round":16,"colors":[0,1,2,3,4],"counts":[4,1,7,1,8]}
{"type":"check_pending","color":0,"deadlines":[20],"counts":[4]}
{"type":"check_pending","color":2,"deadlines":[24],"counts":[7]}
{"type":"check_pending","color":4,"deadlines":[24],"counts":[8]}
{"type":"check_assignment","colors":[3,3,1,1,-1]}
{"type":"check_counters","reconfigs":22,"failed":0,"drops":16,"execs":40,"cost":82}
{"type":"end"}
|}

(* A dlru-edf session "mix" (bounds 2,3,4, n = 4, queue limit 16) fed
   [0:2 1:1] and stepped 4 rounds. [session_header] is its rrs-sess/1
   header as files written before rrs-snap/2 carry it, with no
   [snap_version] field; [session_body] is the embedded stepper
   document. *)
let session_header =
  {|{"schema":"rrs-sess/1","session":"mix","policy":"dlru-edf","queue_limit":16,"fed":3,"shed":0}|}

let session_body =
  {|{"schema":"rrs-snap/1","name":"mix","delta":3,"n":4,"speed":1,"horizon":0,"bounds":[2,3,4],"policy":"dlru-edf","round":4,"accepted":3}
{"type":"arrival","round":0,"colors":[0,1],"counts":[2,1]}
{"type":"check_assignment","colors":[-1,-1,-1,-1]}
{"type":"check_counters","reconfigs":0,"failed":0,"drops":3,"execs":0,"cost":3}
{"type":"end"}
|}
