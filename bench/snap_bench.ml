(* E19 — snapshot size and save/restore latency vs session age.

   Two identically-fed steppers (same seeded workload as E18: ~n jobs
   per round across 8 colors, dlru-edf) age side by side, both writing
   rrs-snap/2: one that never checkpoints (K = 0, the replay base is
   the full arrival history) and one checkpointing every
   [checkpoint_interval] rounds (the replay base is the latest
   materialized-state checkpoint). At each round milestone both are
   snapshotted to disk and restored back, and the bench reports
   document bytes, save latency, restore latency and whether the
   document still fits an inline [snapshotted] reply frame (the wire's
   max_frame).

   The claim under test: K = 0 grows linearly with rounds served —
   bytes, save and restore all O(total arrivals) — until the document
   cannot cross the wire at all, while the checkpointed document stays
   flat at O(checkpoint interval) however long the session runs. *)

module Stepper = Rrs_sim.Stepper
module Ledger = Rrs_sim.Ledger
module Clock = Rrs_obs.Clock
module Wire = Rrs_server.Wire

let policy_key = "dlru-edf"
let policy : (module Rrs_sim.Policy.POLICY) = (module Rrs_core.Policy_lru_edf)
let bounds = [| 2; 3; 4; 6; 8; 12; 16; 24 |]
let colors = Array.length bounds
let delta = 4
let n = 8
let checkpoint_interval = 256

(* The last milestone pushes the K = 0 document past Wire.max_frame, so
   the run demonstrates both the growth curve and the point where only
   the checkpointed session can still snapshot inline. *)
let milestones = [ 1_000; 5_000; 10_000; 20_000; 40_000; 60_000 ]

let us_of_ns span = Int64.to_int (Int64.div span 1000L)

let feed_round random stepper =
  let counts = Array.make colors 0 in
  for _ = 1 to n do
    let c = Random.State.int random colors in
    counts.(c) <- counts.(c) + 1
  done;
  let request =
    List.filter (fun (_, k) -> k > 0)
      (List.init colors (fun c -> (c, counts.(c))))
  in
  Stepper.feed stepper request;
  Stepper.step stepper

type sample = {
  s_bytes : int;
  s_save_us : int;
  s_restore_us : int;
  s_inline_ok : bool; (* fits one inline snapshotted reply frame *)
}

let measure dir ~every stepper =
  let path = Filename.concat dir (Printf.sprintf "e19-k%d.jsonl" every) in
  let t0 = Clock.now_ns () in
  Stepper.save stepper ~path;
  let s_save_us = us_of_ns (Int64.sub (Clock.now_ns ()) t0) in
  let doc = In_channel.with_open_bin path In_channel.input_all in
  let t1 = Clock.now_ns () in
  (match Stepper.restore ~record_events:false ~policy doc with
  | Ok _ -> ()
  | Error message ->
      Printf.ksprintf failwith "E19: K = %d restore failed: %s" every message);
  let s_restore_us = us_of_ns (Int64.sub (Clock.now_ns ()) t1) in
  let reply =
    Wire.to_wire Wire.V1
      (Wire.Snapshotted { session = "e19"; path = None; doc = Some doc })
  in
  {
    s_bytes = String.length doc;
    s_save_us;
    s_restore_us;
    s_inline_ok = String.length reply <= Wire.max_frame;
  }

let run ?json () =
  let dir = Filename.temp_file "rrs-snap-bench" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let table =
    Rrs_stats.Table.create
      ~title:
        (Printf.sprintf
           "E19 snapshot growth (policy %s, rrs-snap/2, K = checkpoint \
            interval)"
           policy_key)
      ~columns:
        [ "rounds"; "K"; "bytes"; "save us"; "restore us"; "inline" ]
  in
  let bench =
    Option.map
      (fun path ->
        (Rrs_stats.Bench_io.create ~tag:(Rrs_stats.Bench_io.tag_of_path path),
         path))
      json
  in
  Option.iter
    (fun (b, _) ->
      Rrs_stats.Bench_io.start_experiment b ~id:"E19"
        ~claim:
          "Without checkpoints (K = 0) snapshot size and save/restore \
           latency grow linearly with rounds served until the document \
           exceeds the wire frame limit; checkpointed snapshots stay flat \
           at O(checkpoint interval) and remain inline-frameable at every \
           session age.")
    bench;
  let ok = ref true in
  (try
     let aging every =
       ( every,
         Stepper.create ~record_events:false ~checkpoint_every:every ~policy
           { Stepper.name = Printf.sprintf "e19-k%d" every; delta; bounds; n;
             speed = 1; horizon = 0 },
         Random.State.make [| 0xE19; 1 |] )
     in
     let steppers = [ aging 0; aging checkpoint_interval ] in
     let rounds_done = ref 0 in
     List.iter
       (fun milestone ->
         let t0 = Clock.now_s () in
         for _ = !rounds_done + 1 to milestone do
           List.iter (fun (_, stepper, random) -> feed_round random stepper)
             steppers
         done;
         rounds_done := milestone;
         List.iter
           (fun (every, stepper, _) ->
             let sample = measure dir ~every stepper in
             let ledger = Stepper.ledger stepper in
             Rrs_stats.Table.add_row table
               [
                 Rrs_stats.Table.cell_int milestone;
                 Rrs_stats.Table.cell_int every;
                 Rrs_stats.Table.cell_int sample.s_bytes;
                 Rrs_stats.Table.cell_int sample.s_save_us;
                 Rrs_stats.Table.cell_int sample.s_restore_us;
                 (if sample.s_inline_ok then "yes" else "NO");
               ];
             Option.iter
               (fun (b, _) ->
                 Rrs_stats.Bench_io.record b ~policy:policy_key
                   ~workload:
                     (Printf.sprintf "snap-age-%d-k%d" milestone every)
                   ~n ~delta
                   ~cost:(Ledger.total_cost ledger)
                   ~reconfig_count:(Ledger.reconfig_count ledger)
                   ~drop_count:(Ledger.drop_count ledger)
                   ~exec_count:(Ledger.exec_count ledger)
                   ~wall_s:(Clock.elapsed_s t0)
                   ~extras:
                     [
                       ("rounds", milestone);
                       ("snap_bytes", sample.s_bytes);
                       ("save_us", sample.s_save_us);
                       ("restore_us", sample.s_restore_us);
                       ("checkpoint_every", every);
                       ("inline_frameable", if sample.s_inline_ok then 1 else 0);
                     ]
                   ())
               bench)
           steppers)
       milestones
   with e ->
     ok := false;
     Format.eprintf "snap bench failed: %s@." (Printexc.to_string e));
  Rrs_stats.Table.print table;
  Option.iter
    (fun (b, path) ->
      Rrs_stats.Bench_io.write b ~path;
      Format.eprintf "wrote %s@." path)
    bench;
  if not !ok then exit 1
