(* Metric names, units and the result line.  These lists must match
   BENCHMARK.json: every run prints all end-to-end metrics (tracing
   off), each workload setting each one, or all per-layer metrics
   (tracing on).  A layer a workload does not reach did no work there
   and its per-layer metrics read 0. *)

let end_to_end =
  [ ("setup_s", "s"); ("ops_per_cpu_s", "ops/cpu-s"); ("hit_rate", "ratio"); ("live_heap_mb", "MB") ]

let per_layer =
  [
    ("failed_frac", "ratio");
    ("client.sched_lag_p99_us", "us");
    ("client.encode_ns", "ns");
    ("client.decode_ns", "ns");
    ("client.send_p50_us", "us");
    ("server.accepted_p50_us", "us");
    ("server.accepted_p99_us", "us");
    ("server.outside_p50_us", "us");
    ("server.admission_p50_ns", "ns");
    ("server.queue_wait_p50_us", "us");
    ("server.queue_wait_p99_us", "us");
    ("server.exec_self_p50_us", "us");
    ("server.shed_queue_full_frac", "ratio");
    ("server.shed_latency_breach_frac", "ratio");
    ("server.deadline_expired_frac", "ratio");
    ("server.retry_exhausted", "count");
    ("server.executed_frac", "ratio");
    ("server.write_failures", "count");
    ("map.find_ns_p50", "ns");
    ("map.find_ns_p99", "ns");
    ("map.insert_ns_p50", "ns");
    ("map.remove_ns_p50", "ns");
    ("map.cas_retries_per_op", "ratio");
    ("map.cache_miss_frac", "ratio");
    ("map.mean_depth", "levels");
    ("map.cache_level", "level");
    ("map.expansions_per_kop", "count/kop");
    ("map.minor_words_per_op", "words");
    ("wal.append_us_p50", "us");
    ("wal.fsync_wait_us_p50", "us");
    ("wal.fsync_wait_us_p99", "us");
    ("wal.appends_per_fsync", "ratio");
    ("wal.fsyncs_per_s", "1/s");
    ("wal.retries", "count");
    ("wal.bytes_per_write", "bytes");
    ("checkpoint.count", "count");
    ("checkpoint.records", "count");
    ("cache.loads_per_op", "ratio");
    ("cache.evictions_per_op", "ratio");
    ("cache.rejections_per_op", "ratio");
    ("cache.used_frac", "ratio");
    ("cache.lookup_ns_p50", "ns");
    ("cache.load_ns_p50", "ns");
    ("gc.minor_collections_per_kop", "count/kop");
    ("gc.major_collections", "count");
    ("obs.trace_overhead_pct", "%");
  ]

(* What one run found: its metrics by name, and the correctness
   ledger.  [failed] counts operations whose outcome broke the
   workload's model (a wrong value, a drop, a duplicate reply); typed
   refusals are correct behaviour and show in [failed_frac]. *)
type t = {
  mutable values : (string * float) list;
  mutable notes : string list;
  mutable attempted : int;
  mutable failed : int;
  mutable errors : string list;
}

let create () = { values = []; notes = []; attempted = 0; failed = 0; errors = [] }
let set t name v = t.values <- (name, v) :: List.remove_assoc name t.values
let note t fmt = Printf.ksprintf (fun s -> t.notes <- s :: t.notes) fmt

let error t fmt =
  Printf.ksprintf (fun s -> t.errors <- s :: t.errors) fmt

let count t ~attempted ~failed =
  t.attempted <- t.attempted + attempted;
  t.failed <- t.failed + failed

(* Human-readable lines, then the JSON result as the last line. *)
let print t ~trace =
  let names = if trace then per_layer else end_to_end in
  List.iter (fun s -> Printf.printf "# %s\n" s) (List.rev t.notes);
  List.iter (fun s -> Printf.printf "! %s\n" s) (List.rev t.errors);
  let value name =
    match List.assoc_opt name t.values with
    | Some v when Float.is_finite v -> v
    | _ -> 0.0
  in
  List.iter
    (fun (name, unit) -> Printf.printf "%-34s %14.4f %s\n" name (value name) unit)
    names;
  let correct = t.errors = [] && t.failed = 0 in
  let metrics =
    String.concat ", "
      (List.map
         (fun (name, unit) ->
           Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name (value name) unit)
         names)
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct (max 1 t.attempted) t.failed metrics;
  correct
