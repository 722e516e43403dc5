(* An rrs-snap/2 document, captured from the run that [test_server]'s
   "frozen rrs-snap/2 document" case rebuilds: dlru-edf on bounds
   2,3,4,8 with n = 4, a name that needs escaping, location 2 offline
   from round 5 to 30 (so at the base and at the snapshot), a reconfig
   failure planned in each of rounds 0..11 (two of them hit), a
   checkpoint every 8 rounds with arrivals since the base at round 16,
   and a feed buffered in two chunks after round 18. The bytes pin the
   format: a writer change that moves one byte fails the test. *)
let checkpointed =
  {|{"schema":"rrs-snap/2","name":"fix \"v2\" \\ \t","delta":3,"n":4,"speed":1,"horizon":40,"bounds":[2,3,4,8],"policy":"dlru-edf","round":19,"accepted":49,"checkpoint_every":8}
{"type":"fault_crash","location":2,"from":5,"until":30}
{"type":"fault_reconfig","round":0,"location":0}
{"type":"fault_reconfig","round":1,"location":1}
{"type":"fault_reconfig","round":2,"location":2}
{"type":"fault_reconfig","round":3,"location":3}
{"type":"fault_reconfig","round":4,"location":0}
{"type":"fault_reconfig","round":5,"location":1}
{"type":"fault_reconfig","round":6,"location":2}
{"type":"fault_reconfig","round":7,"location":3}
{"type":"fault_reconfig","round":8,"location":0}
{"type":"fault_reconfig","round":9,"location":1}
{"type":"fault_reconfig","round":10,"location":2}
{"type":"fault_reconfig","round":11,"location":3}
{"type":"base","round":16,"accepted":40}
{"type":"base_pending","color":1,"deadlines":[18],"counts":[1]}
{"type":"base_pending","color":2,"deadlines":[17],"counts":[2]}
{"type":"base_pending","color":3,"deadlines":[19,20,23],"counts":[3,1,3]}
{"type":"base_assignment","colors":[0,3,-1,0]}
{"type":"base_offline","locations":[2]}
{"type":"base_counters","reconfigs":13,"failed":2,"drops":10,"execs":20}
{"type":"base_policy","blob":"{\"lru\":[0],\"edf\":[3],\"evictions\":2,\"promotions\":3,\"se_complete\":7,\"se_seen\":[],\"cs_cnt\":[1,1,2,2],\"cs_dd\":[16,18,16,16],\"cs_eligible\":[1,0,0,1],\"cs_last_wrap\":[12,11,9,15],\"cs_prev_wrap\":[4,5,5,11],\"cs_prev2_wrap\":[-1,-1,-1,7],\"cs_epochs_ended\":[1,1,1,1],\"cs_active\":[1,1,1,1],\"cs_eligible_drops\":[0,1,0,2],\"cs_ineligible_drops\":[4,1,2,0],\"cs_last_timestamp\":[12,11,9,7],\"cs_wraps\":10,\"cs_timestamp_updates\":7}"}
{"type":"arrival","round":16,"colors":[0,3],"counts":[2,1]}
{"type":"arrival","round":17,"colors":[1,2],"counts":[1,2]}
{"type":"buffered","colors":[2,0,2],"counts":[1,1,1]}
{"type":"check_pending","color":1,"deadlines":[20],"counts":[1]}
{"type":"check_pending","color":3,"deadlines":[23,24],"counts":[2,1]}
{"type":"check_assignment","colors":[3,3,-1,2]}
{"type":"check_offline","locations":[2]}
{"type":"check_counters","reconfigs":15,"failed":2,"drops":13,"execs":29,"cost":58}
{"type":"end"}
|}
