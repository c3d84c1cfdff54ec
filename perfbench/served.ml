(* The served workloads, run from the load process: start the server
   process, drive it through fixed-rate phases, check every reply
   against the model, and turn the replies and the server's reports
   into metrics. *)

open Common
module R = Report

(* Offered rates, fixed.  They are not measured in-run: a capacity
   probe before each run read 19.95k, 9.65k and 21.2k req/s in three
   runs on one 2-core box, and every rate derived from it moved with
   it.  This client reached about 70k req/s of goodput there (58k at
   60k offered, 72k at 90k), so [over] is about twice that.  [nominal]
   is well under half of it: at 35k offered the read p99 spread by
   0.6 of its median across seeds, at 5k by about 0.16. *)
let read_nominal_rps = 5_000.0
let read_over_rps = 140_000.0
let durable_rps = 5_000.0
let universe = 100_000

type server = {
  pid : int;
  to_srv : out_channel;
  from_srv : in_channel;
  port : int;
}

let live_pids : int list ref = ref []

let spawn ~durable ~traced ~dir =
  let in_r, in_w = Unix.pipe ~cloexec:true () in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let exe = Sys.executable_name in
  let args =
    [|
      exe; "serve"; "--durable"; string_of_bool durable; "--trace";
      (if traced then "1" else "0"); "--dir"; dir; "--universe";
      string_of_int universe;
    |]
  in
  let pid = Unix.create_process exe args in_r out_w Unix.stderr in
  live_pids := pid :: !live_pids;
  Unix.close in_r;
  Unix.close out_w;
  let from_srv = Unix.in_channel_of_descr out_r in
  let to_srv = Unix.out_channel_of_descr in_w in
  match String.split_on_char ' ' (input_line from_srv) with
  | [ "ready"; p ] -> { pid; to_srv; from_srv; port = int_of_string p }
  | _ -> failwith "server did not start"

let read_report s =
  let h = Hashtbl.create 64 in
  let rec go () =
    match String.split_on_char ' ' (input_line s.from_srv) with
    | [ "end" ] -> ()
    | [ k; v ] ->
        Hashtbl.replace h k (float_of_string v);
        go ()
    | _ -> go ()
  in
  go ();
  h

let report s =
  output_string s.to_srv "report\n";
  flush s.to_srv;
  read_report s

(* Drain and stop; the last report and whether the drain flushed. *)
let stop s =
  output_string s.to_srv "stop\n";
  flush s.to_srv;
  let drained =
    match String.split_on_char ' ' (input_line s.from_srv) with
    | [ "drained"; b ] -> bool_of_string b
    | _ -> false
  in
  let final = read_report s in
  let rec finish () =
    match input_line s.from_srv with
    | "bye" -> ()
    | _ -> finish ()
    | exception End_of_file -> ()
  in
  finish ();
  ignore (Unix.waitpid [] s.pid);
  live_pids := List.filter (( <> ) s.pid) !live_pids;
  close_in s.from_srv;
  close_out_noerr s.to_srv;
  (drained, final)

let kill_all () =
  List.iter (fun pid -> try Unix.kill pid Sys.sigkill with _ -> ()) !live_pids;
  List.iter (fun pid -> try ignore (Unix.waitpid [] pid) with _ -> ()) !live_pids;
  live_pids := []

let conns () = max 1 (min 2 (Domain.recommended_domain_count ()))



(* A fresh server with its client connections open.  The durable
   store starts from an empty directory each time. *)
let start ~durable ~traced ~dir =
  if durable then begin
    rm_rf dir;
    Unix.mkdir dir 0o755
  end;
  let s = spawn ~durable ~traced ~dir in
  (s, Array.init (conns ()) (fun _ -> Load.connect s.port))

(* Set up [reps] times and keep the last; set-up time is the median. *)
let setup ~reps ~durable ~dir =
  let times = ref [] and last = ref None in
  for i = 1 to reps do
    let t0 = Clock.monotonic_ns () in
    let s, fds = start ~durable ~traced:false ~dir in
    times := secs_since t0 :: !times;
    if i < reps then begin
      Array.iter Unix.close fds;
      ignore (stop s)
    end
    else last := Some (s, fds)
  done;
  (Arith.percentile_f !times 50.0, Option.get !last)

let get h k = try Hashtbl.find h k with Not_found -> 0.0

(* Correctness of one server's run: every request answered exactly
   once, every answer right; for the durable store, every write found
   again after a reopen. *)
let check rep ~durable ~dir ~model ~drained phases =
  List.iter
    (fun ((p : Load.plan), (r : Load.results)) ->
      let s = Load.summarize p r in
      let wrong = Load.check_phase ~model ~p ~r in
      R.count rep ~attempted:p.n ~failed:(wrong + r.stray);
      if s.dropped > 0 then R.error rep "%d requests were never answered" s.dropped;
      if wrong > 0 then R.error rep "%d replies disagree with the model" wrong;
      if r.stray > 0 then R.error rep "%d stray or duplicate replies" r.stray)
    phases;
  if not drained then R.error rep "drain did not flush every queued request";
  if durable then begin
    match Kv.Durable.open_ ~dir () with
    | Error _ -> R.error rep "the store did not reopen"
    | Ok (st, _) ->
        let m = Kv.Durable.map st in
        let lost = ref 0 in
        Array.iteri
          (fun k ver ->
            match Kv.Durable.Map.lookup m k with
            | Some v -> if ver < 0 || not (is_value_of ~len:kv_value_len k ver v) then incr lost
            | None -> if ver >= 0 then incr lost)
          model;
        ignore (Kv.Durable.close st);
        R.count rep ~attempted:(Array.length model) ~failed:!lost;
        if !lost > 0 then R.error rep "%d keys differ from the acked writes after reopen" !lost
  end

type served_run = {
  phases : (Load.plan * Load.results) list;
  before : (string, float) Hashtbl.t;  (* the server's report before the first phase *)
  reports : (string, float) Hashtbl.t list;  (* one per phase *)
  final : (string, float) Hashtbl.t;
}

(* Drive one server through [plans], then stop and check it. *)
let drive rep ~durable ~dir ~traced (s, fds) plans =
  let model = Array.make universe (if durable then -1 else 0) in
  let before = report s in
  let runs =
    List.map
      (fun p ->
        let r = Load.run_phase ~fds ~p ~traced in
        ((p, r), report s))
      plans
  in
  Array.iter Unix.close fds;
  let drained, final = stop s in
  check rep ~durable ~dir ~model ~drained (List.map fst runs);
  { phases = List.map fst runs; before; reports = List.map snd runs; final }

(* Ok replies per second, from the phase start to the last ok reply. *)
let ok_per_s ((_ : Load.plan), (r : Load.results)) =
  let ok = ref 0 and last = ref r.start in
  Array.iteri
    (fun i rep ->
      if Arith.outcome_of_reply rep = Arith.Answered then begin
        incr ok;
        last := max !last r.recv.(i)
      end)
    r.reply;
  float_of_int !ok /. (float_of_int (!last - r.start) /. 1e9)

let failed_of phases =
  Arith.failed_frac
    (Array.concat
       (List.map
          (fun (_, (r : Load.results)) -> Array.map Arith.outcome_of_reply r.reply)
          phases))

(* End-to-end figures of the first phase, and its latencies as notes.
   Throughput is ok replies per second of the server process's CPU
   time, not of wall time: the open loop fixes the wall-clock rate,
   and CPU time leaves out the time the server was descheduled or its
   virtual CPU was stolen by the host.  Latency on this shared machine
   follows the host's load, not the program (README.md). *)
let end_to_end rep ~setup_s (run : served_run) =
  let p, r = List.hd run.phases in
  let s = Load.summarize p r in
  let ok = Array.length s.read_lat + Array.length s.write_lat in
  let cpu = get (List.hd run.reports) "cpu_s" -. get run.before "cpu_s" in
  R.set rep "setup_s" setup_s;
  R.set rep "ops_per_cpu_s" (if cpu > 0.0 then float_of_int ok /. cpu else 0.0);
  R.set rep "hit_rate" (float_of_int s.gets_hit /. float_of_int (max 1 s.gets_ok));
  R.set rep "live_heap_mb" (get run.final "live_heap_mb");
  let rp, rq = tail ~scale:1e3 s.read_lat and wp, wq = tail ~scale:1e3 s.write_lat in
  R.note rep "latency from scheduled send: read p50 %.1f us, p%g %.1f us (%d); write p50 %.1f us, p%g %.1f us (%d)"
    (pct ~scale:1e3 s.read_lat 50.0) rq rp (Array.length s.read_lat)
    (pct ~scale:1e3 s.write_lat 50.0) wq wp (Array.length s.write_lat);
  R.note rep "%d ok replies, %.0f per wall second; server CPU %.2f s, peak resident set %.1f MB"
    ok (ok_per_s (p, r)) cpu (get run.final "rss.peak_mb");
  R.note rep "generator lag p50 %.1f us, p99 %.1f us; failed_frac %.4f"
    (pct ~scale:1e3 s.lag 50.0) (fst (tail ~scale:1e3 s.lag)) (failed_of run.phases)

(* Per-layer figures from a traced server run.  Timings come from the
   first phase (nominal load), counters from the server's totals at
   the end of the last. *)
let layers rep ~durable (run : served_run) ~untraced_read_p50 =
  let first = List.hd run.phases and r1 = List.hd run.reports in
  let last_rep = List.nth run.reports (List.length run.reports - 1) in
  let s1 = Load.summarize (fst first) (snd first) in
  let r = snd first in
  R.set rep "failed_frac" (failed_of run.phases);
  R.set rep "client.sched_lag_p99_us" (fst (tail ~scale:1e3 s1.lag));
  R.set rep "client.encode_ns" (pct (Buf.to_array r.encode_ns) 50.0);
  R.set rep "client.decode_ns" (pct (Buf.to_array r.decode_ns) 50.0);
  R.set rep "client.send_p50_us" (pct ~scale:1e3 (Buf.to_array r.send_ns) 50.0);
  let acc50 = get r1 "acc.p50_ns" /. 1e3 in
  R.set rep "server.accepted_p50_us" acc50;
  R.set rep "server.accepted_p99_us" (get r1 "acc.p99_ns" /. 1e3);
  let all_ok = Array.append s1.read_lat s1.write_lat in
  R.set rep "server.outside_p50_us" (pct ~scale:1e3 all_ok 50.0 -. acc50);
  R.set rep "server.admission_p50_ns" (get r1 "span.admission.p50_ns");
  R.set rep "server.queue_wait_p50_us" (get r1 "span.queue_wait.p50_ns" /. 1e3);
  R.set rep "server.queue_wait_p99_us" (get r1 "span.queue_wait.p99_ns" /. 1e3);
  R.set rep "server.exec_self_p50_us" (get r1 "span.exec.p50_ns" /. 1e3);
  let attempted =
    float_of_int (List.fold_left (fun a ((p : Load.plan), _) -> a + p.n) 0 run.phases)
  in
  let frac k = get last_rep ("srv." ^ k) /. attempted in
  R.set rep "server.shed_queue_full_frac" (frac "shed_queue_full");
  R.set rep "server.shed_latency_breach_frac" (frac "shed_latency_breach");
  R.set rep "server.deadline_expired_frac" (frac "deadline_expired");
  R.set rep "server.retry_exhausted" (get last_rep "srv.retry_exhausted");
  let executed = get last_rep "srv.executed" in
  let dispatched = get last_rep "srv.dispatched" in
  R.set rep "server.executed_frac" (if dispatched > 0.0 then executed /. dispatched else 0.0);
  R.set rep "server.write_failures" (get run.final "srv.write_failures");
  R.set rep "map.find_ns_p50" (get r1 "map.find.p50_ns");
  R.set rep "map.find_ns_p99" (get r1 "map.find.p99_ns");
  R.set rep "map.insert_ns_p50" (get r1 "map.insert.p50_ns");
  R.set rep "map.remove_ns_p50" (get r1 "map.remove.p50_ns");
  R.set rep "map.minor_words_per_op" (get r1 "map.minor_words_per_op");
  let ops = max 1.0 executed in
  R.set rep "map.cas_retries_per_op" (get last_rep "map.cas_retries" /. ops);
  let ch = get last_rep "map.cache_hits" and cm = get last_rep "map.cache_misses" in
  R.set rep "map.cache_miss_frac" (if ch +. cm > 0.0 then cm /. (ch +. cm) else 0.0);
  R.set rep "map.mean_depth" (get run.final "map.mean_depth");
  R.set rep "map.cache_level" (get run.final "map.cache_level");
  R.set rep "map.expansions_per_kop" (get last_rep "map.expansions" /. (ops /. 1e3));
  if durable then begin
    R.set rep "wal.append_us_p50" (get r1 "wal.append.p50_ns" /. 1e3);
    R.set rep "wal.fsync_wait_us_p50" (get r1 "wal.fsync_wait.p50_ns" /. 1e3);
    R.set rep "wal.fsync_wait_us_p99" (get r1 "wal.fsync_wait.p99_ns" /. 1e3);
    let appends = get last_rep "wal.wal_appends" and fsyncs = get last_rep "wal.wal_fsyncs" in
    R.set rep "wal.appends_per_fsync" (if fsyncs > 0.0 then appends /. fsyncs else 0.0);
    let secs = List.fold_left (fun a ((p : Load.plan), _) -> a +. p.secs) 0.0 run.phases in
    R.set rep "wal.fsyncs_per_s" (fsyncs /. secs);
    R.set rep "wal.retries" (get last_rep "wal.wal_retries");
    R.set rep "wal.bytes_per_write"
      (if appends > 0.0 then get last_rep "wal.store_bytes" /. appends else 0.0);
    R.set rep "checkpoint.count" (get last_rep "wal.checkpoints");
    R.set rep "checkpoint.records" (get last_rep "wal.checkpoint_records")
  end;
  R.set rep "gc.minor_collections_per_kop" (get last_rep "gc.minor_collections" /. (ops /. 1e3));
  R.set rep "gc.major_collections" (get last_rep "gc.major_collections");
  let traced_p50 = pct ~scale:1e3 s1.read_lat 50.0 in
  R.set rep "obs.trace_overhead_pct"
    (if untraced_read_p50 > 0.0 then (traced_p50 -. untraced_read_p50) /. untraced_read_p50 *. 100.0
     else 0.0)

let dir_of work = Filename.concat work "store"

let generator_setup () =
  (* A minor heap large enough that the generator rarely collects
     during a phase: its pauses would count as server latency. *)
  Gc.set { (Gc.get ()) with Gc.minor_heap_size = 8 lsl 20 }

(* The untraced read p50 of a plain server over [plan], then the traced
   server over [plan] and [more]: the per-layer run of a served
   workload. *)
let traced_run rep ~durable ~dir plan more =
  let plain = start ~durable ~traced:false ~dir in
  let base = drive rep ~durable ~dir ~traced:false plain [ plan ] in
  let untraced_read_p50 =
    let p, r = List.hd base.phases in
    pct ~scale:1e3 (Load.summarize p r).read_lat 50.0
  in
  let traced = start ~durable ~traced:true ~dir in
  let run = drive rep ~durable ~dir ~traced:true traced (plan :: more) in
  layers rep ~durable run ~untraced_read_p50;
  run

(* kv-read: the in-memory cache-trie behind Kv.Server, prefilled with
   the 100k-key universe.  The untraced run is the nominal phase alone;
   the traced run adds the overload phase and prints its goodput.  Not
   in BENCHMARK.json: a fourth workload would not fit the time allowed
   for all runs of the benchmark (README.md). *)
let kv_read rep ~work ~seed ~secs ~trace =
  generator_setup ();
  let dir = dir_of work and conns = conns () in
  let plan ~part ~rate ~secs ~first_ver =
    Load.make_plan ~seed:(seed + part) ~profile:Harness.Trace.read_mostly ~rate ~secs
      ~conns ~first_ver
  in
  R.note rep "kv-read: open loop, %d connections over loopback, nominal %.0f req/s, over %.0f req/s"
    conns read_nominal_rps read_over_rps;
  if not trace then begin
    let setup_s, srv = setup ~reps:15 ~durable:false ~dir in
    let nominal = plan ~part:1 ~rate:read_nominal_rps ~secs ~first_ver:1 in
    end_to_end rep ~setup_s (drive rep ~durable:false ~dir ~traced:false srv [ nominal ])
  end
  else begin
    let nominal = plan ~part:1 ~rate:read_nominal_rps ~secs:(secs /. 4.0) ~first_ver:1 in
    let over =
      plan ~part:2 ~rate:read_over_rps ~secs:(secs /. 2.0) ~first_ver:(1 + nominal.n)
    in
    let run = traced_run rep ~durable:false ~dir nominal [ over ] in
    R.note rep "overload goodput %.0f req/s at %.0f offered"
      (ok_per_s (List.nth run.phases 1))
      read_over_rps
  end

(* kv-durable: Kv.Durable (snapshotting ctrie + group-commit WAL at the
   library defaults) behind Kv.Server, from an empty store. *)
let kv_durable rep ~work ~seed ~secs ~trace =
  generator_setup ();
  let dir = dir_of work and conns = conns () in
  let plan ~secs =
    Load.make_plan ~seed ~profile:Harness.Trace.churn ~rate:durable_rps ~secs ~conns
      ~first_ver:1
  in
  R.note rep "kv-durable: open loop, %d connections over loopback, %.0f req/s; store on %s, fsync per group commit"
    conns durable_rps (fs_type work);
  if not trace then begin
    let setup_s, srv = setup ~reps:15 ~durable:true ~dir in
    end_to_end rep ~setup_s (drive rep ~durable:true ~dir ~traced:false srv [ plan ~secs ])
  end
  else ignore (traced_run rep ~durable:true ~dir (plan ~secs:(secs /. 2.0)) []);
  rm_rf dir
