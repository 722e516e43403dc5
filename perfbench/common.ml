(* Shared plumbing for the benchmark: options, clocks, sample vectors,
   honest percentiles, the result line, /proc counters and child
   processes. *)

module Clock = Rrs_obs.Clock

type options = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  rrs : string;  (** the rrs executable under test *)
  workdir : string;  (** working space for sockets and snapshots *)
  perturb : bool;  (** negative test: the reference gets one extra job *)
}

(* The seed whose sweep ledgers are pinned in Batch.golden. *)
let default_seed = 1

exception Incorrect of string
(** A correctness gate failed: the program's output disagrees with the
    reference. No metric of the run is scored. *)

let incorrect format = Printf.ksprintf (fun s -> raise (Incorrect s)) format
let fail format = Printf.ksprintf failwith format
let now_ns () = Int64.to_int (Clock.now_ns ())
let log format = Printf.ksprintf (fun s -> prerr_endline ("rrsbench: " ^ s)) format

(* Growable int vector (OCaml 5.1 has no Dynarray). *)
module Vec = struct
  type t = { mutable data : int array; mutable len : int }

  let create () = { data = Array.make 1024 0; len = 0 }

  let push v x =
    if v.len = Array.length v.data then begin
      let bigger = Array.make (2 * v.len) 0 in
      Array.blit v.data 0 bigger 0 v.len;
      v.data <- bigger
    end;
    v.data.(v.len) <- x;
    v.len <- v.len + 1

  let length v = v.len
  let to_array v = Array.sub v.data 0 v.len

  let concat vs = Array.concat (List.map to_array vs)
end

(* Nearest-rank percentile over [samples] (any order). A percentile is
   only reported when at least 10 samples lie beyond it, so a p99 needs
   at least 1000 samples; [None] otherwise. *)
let percentile samples p =
  let n = Array.length samples in
  let rank = int_of_float (ceil (p *. float_of_int n)) in
  if n = 0 || n - rank < 10 then None
  else begin
    let sorted = Array.copy samples in
    Array.sort compare sorted;
    Some sorted.(max 0 (rank - 1))
  end

(* Percentile that the run cannot do without: too few samples is a
   harness failure, never a silently reported number. *)
let percentile_exn ~what samples p =
  match percentile samples p with
  | Some v -> v
  | None ->
      fail "%s: %d samples are too few for p%g with 10 beyond it" what
        (Array.length samples) (100. *. p)

(* Per-layer p50 that degrades to 0 when the layer did too little work
   in the window to support a median honestly. *)
let p50_or_zero samples =
  match percentile samples 0.5 with Some v -> v | None -> 0

let median_float xs =
  let sorted = List.sort compare xs in
  let n = List.length sorted in
  if n = 0 then 0.
  else if n mod 2 = 1 then List.nth sorted (n / 2)
  else (List.nth sorted ((n / 2) - 1) +. List.nth sorted (n / 2)) /. 2.

(* The window's p99 as the median of the p99s of k equal sub-windows,
   each holding at least 1000 samples (so 10 beyond its p99): one burst
   of host noise moves one sub-window, not the reported figure. *)
let rec sub_window_p99 ?(k = 10) samples ~at ~t0 ~t1 =
  let span = (t1 - t0 + k - 1) / k in
  let buckets = Array.init k (fun _ -> Vec.create ()) in
  Array.iteri
    (fun i v -> Vec.push buckets.(min (k - 1) (max 0 ((at.(i) - t0) / span))) v)
    samples;
  if k > 1 && Array.exists (fun b -> Vec.length b < 1000) buckets then
    sub_window_p99 ~k:(k - 1) samples ~at ~t0 ~t1
  else
    let p99s =
      Array.to_list
        (Array.map
           (fun b ->
             float_of_int (percentile_exn ~what:"round latency" (Vec.to_array b) 0.99))
           buckets)
    in
    (int_of_float (median_float p99s), k)

let mean_ns ~total ~count =
  if count = 0 then 0. else float_of_int total /. float_of_int count

(* {1 Result} *)

type metric = { m_name : string; m_value : float; m_unit : string; m_note : string }

let metric ?(note = "") m_name m_unit m_value =
  { m_name; m_value; m_unit; m_note = note }

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let print_line m =
  Printf.printf "%-28s %18s %-6s %s\n" m.m_name (json_number m.m_value) m.m_unit
    m.m_note

(* Human-readable table first, the one-line JSON result last. *)
let emit ~correct ~attempted ~failed metrics =
  List.iter print_line metrics;
  let body =
    String.concat ", "
      (List.map
         (fun m ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.m_name
             (json_number m.m_value) m.m_unit)
         metrics)
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed body

(* {1 Outside-in process counters} *)

type proc = {
  cpu_ticks : int;  (** utime + stime, in USER_HZ (100/s) ticks *)
  syscr : int;
  syscw : int;
  vctx : int;  (** voluntary context switches, summed over threads *)
  rss_kib : int;
}

let zero_proc = { cpu_ticks = 0; syscr = 0; syscw = 0; vctx = 0; rss_kib = 0 }

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* /proc files report a length of 0; read them line by line. *)
let read_lines path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let rec loop acc =
        match input_line ic with
        | line -> loop (line :: acc)
        | exception End_of_file -> List.rev acc
      in
      loop [])

let field_of_lines lines key =
  List.fold_left
    (fun acc line ->
      match String.index_opt line ':' with
      | Some i when String.sub line 0 i = key ->
          let rest = String.trim (String.sub line (i + 1) (String.length line - i - 1)) in
          let digits = List.hd (String.split_on_char ' ' rest) in
          acc + int_of_string digits
      | _ -> acc)
    0 lines

let read_proc pid =
  let base = Printf.sprintf "/proc/%d" pid in
  try
    let stat = String.concat " " (read_lines (base ^ "/stat")) in
    let after = String.rindex stat ')' in
    let fields =
      String.split_on_char ' '
        (String.sub stat (after + 2) (String.length stat - after - 2))
    in
    (* fields.(0) is the state (field 3), so utime/stime (14/15) sit at 11/12. *)
    let field i = int_of_string (List.nth fields i) in
    let io = read_lines (base ^ "/io") in
    let tasks = Sys.readdir (base ^ "/task") in
    let vctx =
      Array.fold_left
        (fun acc tid ->
          try
            acc
            + field_of_lines
                (read_lines (Printf.sprintf "%s/task/%s/status" base tid))
                "voluntary_ctxt_switches"
          with Sys_error _ -> acc)
        0 tasks
    in
    {
      cpu_ticks = field 11 + field 12;
      syscr = field_of_lines io "syscr";
      syscw = field_of_lines io "syscw";
      vctx;
      rss_kib = field_of_lines (read_lines (base ^ "/status")) "VmRSS";
    }
  with Sys_error _ | Not_found | Failure _ | Invalid_argument _ -> zero_proc

let read_procs pids =
  List.fold_left
    (fun acc pid ->
      let p = read_proc pid in
      {
        cpu_ticks = acc.cpu_ticks + p.cpu_ticks;
        syscr = acc.syscr + p.syscr;
        syscw = acc.syscw + p.syscw;
        vctx = acc.vctx + p.vctx;
        rss_kib = acc.rss_kib + p.rss_kib;
      })
    zero_proc pids

(* {1 Child processes}

   Every process the benchmark starts is registered here, so an early
   exit (a failed gate, an exception) still stops and reaps it. *)

let children : int list ref = ref []

let spawn ~log_path argv =
  let out =
    Unix.openfile log_path [ Unix.O_WRONLY; O_CREAT; O_APPEND; O_CLOEXEC ] 0o644
  in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY; O_CLOEXEC ] 0 in
  let pid =
    Fun.protect
      ~finally:(fun () ->
        Unix.close out;
        Unix.close null)
      (fun () -> Unix.create_process argv.(0) argv null out out)
  in
  children := pid :: !children;
  pid

(* A zombie counts as gone: a shard orphaned by its supervisor may
   wait for a reaper that never comes. *)
let alive pid =
  match read_lines (Printf.sprintf "/proc/%d/stat" pid) with
  | line :: _ -> (
      match String.rindex_opt line ')' with
      | Some i when i + 2 < String.length line -> line.[i + 2] <> 'Z'
      | _ -> false)
  | [] -> false
  | exception Sys_error _ -> false

let rec waitpid_nohang pid =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ -> false
  | _ -> true
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> waitpid_nohang pid
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> true

(* SIGTERM, wait up to [grace_s], then SIGKILL; always reaps. *)
let stop_child ?(grace_s = 10.) pid =
  (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
  let deadline = Unix.gettimeofday () +. grace_s in
  let rec wait () =
    if waitpid_nohang pid then ()
    else if Unix.gettimeofday () > deadline then begin
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] pid)
    end
    else begin
      Unix.sleepf 0.005;
      wait ()
    end
  in
  wait ();
  children := List.filter (fun p -> p <> pid) !children

(* A process that is not our child (a shard-set's shard): wait for it
   to go, killing it if it outlives [grace_s]. *)
let await_gone ?(grace_s = 10.) pid =
  let deadline = Unix.gettimeofday () +. grace_s in
  while alive pid && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.005
  done;
  if alive pid then begin
    (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
    while alive pid do
      Unix.sleepf 0.005
    done
  end

(* Idle-priority spinners, one per CPU, for the served workloads. On a
   virtual machine an idle vCPU halts, and waking it again can take
   milliseconds: on a 2-vCPU VM a 1 ms sleep overshot by 4-8 ms at p99
   with the CPUs idle. Under SCHED_IDLE the spinners run only when a
   CPU has nothing else to do and are preempted at once by any thread
   that wakes (the server, the generators). *)
external sched_idle : unit -> bool = "rrsbench_sched_idle"

let keep_warm () =
  for _ = 1 to Domain.recommended_domain_count () do
    ignore
      (spawn ~log_path:"/dev/null" [| Sys.executable_name; "--keep-warm" |])
  done

let spin_until_orphaned () =
  if not (sched_idle ()) then ignore (Unix.nice 19);
  let parent = Unix.getppid () in
  while Unix.getppid () = parent do
    for _ = 1 to 10_000 do
      Domain.cpu_relax ()
    done
  done;
  exit 0

let stop_all_children () = List.iter (fun pid -> stop_child ~grace_s:5. pid) !children

let rec remove_tree path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
      Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let rec ensure_dir path =
  let parent = Filename.dirname path in
  if parent <> path && not (Sys.file_exists parent) then ensure_dir parent;
  try Unix.mkdir path 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()

(* {1 Metric names}

   The names and units BENCHMARK.json declares. A traced run prints
   every per-layer metric; a layer a workload does not exercise reads 0. *)

let end_to_end = [ "setup_s"; "round_p50_us"; "rounds_per_s"; "jobs_per_s" ]

let per_layer =
  [
    ("round.p99_us", "us"); ("gen.late_p99_us", "us"); ("gen.samples", "count");
    ("client.feed_rtt_p50_us", "us"); ("client.step_rtt_p50_us", "us");
    ("client.stats_rtt_p50_us", "us"); ("client.step_ckpt_rtt_p50_us", "us");
    ("wire.encode_ns", "ns"); ("wire.parse_ns", "ns");
    ("wire.bytes_per_frame", "B"); ("wire.frames", "count");
    ("server.cpu_us_per_frame", "us"); ("server.syscr_per_frame", "count");
    ("server.syscw_per_frame", "count"); ("server.vctx_per_frame", "count");
    ("server.rss_kib", "KiB"); ("transport.residual_us", "us");
    ("server.feed_p50_us", "us"); ("server.step_p50_us", "us");
    ("server.lock_wait_p99_us", "us"); ("session.feed_ns", "ns");
    ("session.step_ns", "ns"); ("engine.drop_ns", "ns");
    ("engine.arrival_ns", "ns"); ("engine.reconfig_ns", "ns");
    ("engine.execute_ns", "ns"); ("engine.minor_words", "words");
    ("engine.jobs", "count"); ("engine.reconfigs", "count");
    ("engine.drops", "count"); ("solver.var_batch_s", "s");
    ("router.hop_us", "us"); ("snap.bytes", "B"); ("snap.write_ns", "ns");
    ("snap.restore_ns", "ns"); ("trace.overhead_pct", "%");
  ]

(* The declared metrics in declared order, each exactly once: a
   measured metric with a name BENCHMARK.json does not declare is a
   bug of the benchmark. *)
let complete ~trace metrics =
  let find name = List.find_opt (fun m -> m.m_name = name) metrics in
  List.iter
    (fun m ->
      let declared =
        if trace then List.mem_assoc m.m_name per_layer else List.mem m.m_name end_to_end
      in
      if not declared then fail "metric %s is not declared" m.m_name)
    metrics;
  if trace then
    List.map
      (fun (name, unit) ->
        match find name with
        | Some m ->
            if m.m_unit <> unit then fail "metric %s has unit %s, declared %s" name m.m_unit unit;
            m
        | None -> metric name unit 0. ~note:"(layer not exercised)")
      per_layer
  else
    List.map
      (fun name ->
        match find name with Some m -> m | None -> fail "metric %s was not measured" name)
      end_to_end
