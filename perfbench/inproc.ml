(* The in-process workloads: the main domain calling one layer
   directly in a closed loop, over an operation stream made from the
   seed before the clock starts.  One domain, not [nproc]: with two,
   the cost of each operation depended on where the host put the two
   virtual CPUs, which changed from run to run, and cache-zipf's p50
   latency and both workloads' throughput spread by about 0.3 of their
   medians over ten seeds. *)

open Common
module R = Report
module Metrics = Ct_util.Metrics

let stream_len = 1 lsl 20

(* Latency samples: one operation in [lat_every] is timed,
   and of those one in [stride] per kind is kept in a fixed array, so
   the loop allocates nothing.  When the array fills, every other
   sample is dropped and the stride doubles: the samples kept always
   spread evenly over the whole run, in time order. *)
let lat_every = 64
let lat_cap = 1 lsl 18

type lat = { samples : int array array; counts : int array; seen : int array; strides : int array }

let lat_create kinds =
  {
    samples = Array.init kinds (fun _ -> Array.make lat_cap 0);
    counts = Array.make kinds 0;
    seen = Array.make kinds 0;
    strides = Array.make kinds 1;
  }

let lat_add l kind ns =
  let seen = l.seen.(kind) in
  l.seen.(kind) <- seen + 1;
  if seen mod l.strides.(kind) = 0 then begin
    if l.counts.(kind) = lat_cap then begin
      let a = l.samples.(kind) in
      for i = 0 to (lat_cap / 2) - 1 do
        a.(i) <- a.(2 * i)
      done;
      l.counts.(kind) <- lat_cap / 2;
      l.strides.(kind) <- 2 * l.strides.(kind)
    end;
    if seen mod l.strides.(kind) = 0 then begin
      l.samples.(kind).(l.counts.(kind)) <- ns;
      l.counts.(kind) <- l.counts.(kind) + 1
    end
  end

let lat_samples l kinds =
  Array.concat (List.map (fun k -> Array.sub l.samples.(k) 0 l.counts.(k)) kinds)

(* The largest keep-stride among [kinds]. *)
let stride l kinds = List.fold_left (fun a k -> max a l.strides.(k)) 1 kinds

(* Each loop cuts its run into intervals of [interval_ns] of wall time
   and records, for each, its operations per second of the thread's
   CPU time, which leaves out the time the thread was descheduled or
   its virtual CPU was stolen by the host.  On a virtual machine
   shared with other tenants, the speed of a virtual CPU also changes
   by up to 1.8 times over seconds with their load, and a plain
   compute loop shows the same swings.  That interference only ever
   slows a run, so throughput is the p90 over intervals: the program's
   speed in the quieter spells.
   The program's own costs, collections included, recur in every
   interval and stay in it. *)
let interval_ns = 500_000_000

type meter = { mutable ops0 : int; mutable cpu0 : int; mutable due : int; mutable rates : float list }

let meter_create () =
  { ops0 = 0; cpu0 = thread_cpu_ns (); due = Clock.monotonic_ns () + interval_ns; rates = [] }

(* Called with the loop's operation count so far and the time. *)
let meter_tick m ~ops ~now =
  if now >= m.due then begin
    let cpu = thread_cpu_ns () in
    if cpu > m.cpu0 then
      m.rates <- (float_of_int (ops - m.ops0) *. 1e9 /. float_of_int (cpu - m.cpu0)) :: m.rates;
    m.ops0 <- ops;
    m.cpu0 <- cpu;
    m.due <- now + interval_ns
  end

(* The first fifth of the run warms up: the collector finishes the
   cycle that set-up started, and the caches fill.  Its intervals are
   left out; the rest are returned in time order. *)
let measured_rates m =
  let all = List.rev m.rates in
  let warm = List.length all / 5 in
  List.filteri (fun i _ -> i >= warm) all

type loop_out = {
  ops : int;
  errors : int;
  words : float;  (* minor words allocated in the loop *)
  lat : lat;
  reads : int;  (* finds, or get_or_loads *)
  read_hits : int;  (* finds that found, or gets served without the loader *)
  rates : float list;  (* ops per CPU second, one per interval *)
}

let cpu_rate o = Arith.percentile_f o.rates 90.0

(* The end-to-end figures of both in-process workloads, and their
   latencies as notes. *)
let set_end_to_end rep o ~read_kinds ~write_kinds =
  let rd = lat_samples o.lat read_kinds and wr = lat_samples o.lat write_kinds in
  let rp, rq = tail ~scale:1e3 rd and wp, wq = tail ~scale:1e3 wr in
  R.note rep "latency, 1 op in %d timed: read p50 %.3f us, p%g %.3f us; write p50 %.3f us, p%g %.3f us"
    lat_every (pct ~scale:1e3 rd 50.0) rq rp (pct ~scale:1e3 wr 50.0) wq wp;
  R.note rep "latency samples: %d reads (1 timed read in %d kept), %d writes (1 in %d)"
    (Array.length rd) (stride o.lat read_kinds) (Array.length wr) (stride o.lat write_kinds);
  R.note rep "ops per CPU second over %d intervals: min %.0f, p50 %.0f, max %.0f"
    (List.length o.rates) (List.fold_left min infinity o.rates) (Arith.percentile_f o.rates 50.0)
    (List.fold_left max 0.0 o.rates);
  R.note rep "minor words per op (whole loop) %.3f" (o.words /. float_of_int o.ops);
  R.set rep "ops_per_cpu_s" (cpu_rate o);
  R.set rep "hit_rate" (float_of_int o.read_hits /. float_of_int (max 1 o.reads))

(* Memory after the run; [data], the map or tier, is kept live until
   the heap has been measured. *)
let set_memory rep data =
  R.set rep "live_heap_mb" (live_heap_mb ());
  R.note rep "peak resident set %.1f MB" (peak_rss_mb ());
  ignore (Sys.opaque_identity data)

let gc_layers rep ~gc0 ~ops =
  let gc = Gc.quick_stat () in
  R.set rep "gc.minor_collections_per_kop"
    (float_of_int (gc.Gc.minor_collections - gc0.Gc.minor_collections) /. (float_of_int ops /. 1e3));
  R.set rep "gc.major_collections" (float_of_int (gc.Gc.major_collections - gc0.Gc.major_collections))

let map_layers rep ~ops ~counters =
  let get l = float_of_int (try List.assoc l counters with Not_found -> 0) in
  let f = Timed_map.samples Timed_map.Find in
  R.set rep "map.find_ns_p50" (pct f 50.0);
  R.set rep "map.find_ns_p99" (fst (tail f));
  R.set rep "map.insert_ns_p50" (pct (Timed_map.samples Timed_map.Insert) 50.0);
  R.set rep "map.remove_ns_p50" (pct (Timed_map.samples Timed_map.Remove) 50.0);
  R.set rep "map.minor_words_per_op" (Timed_map.words_per_op ());
  let ops = float_of_int (max 1 ops) in
  R.set rep "map.cas_retries_per_op" (get "cas_retries" /. ops);
  let ch = get "cache_hits" and cm = get "cache_misses" in
  R.set rep "map.cache_miss_frac" (if ch +. cm > 0.0 then cm /. (ch +. cm) else 0.0);
  R.set rep "map.expansions_per_kop" (get "expansions" /. (ops /. 1e3));
  match Timed_map.current_shapes () with
  | sh :: _ ->
      R.set rep "map.mean_depth" (Timed_map.mean_depth sh.Timed_map.depth_histogram);
      R.set rep "map.cache_level" (float_of_int sh.cache_level)
  | [] -> ()

let counter_delta before after =
  List.map (fun (l, v) -> (l, v - (try List.assoc l before with Not_found -> 0))) after

let family_counters family =
  match List.find_opt (fun (f, _, _) -> f = family) (Metrics.aggregate ()) with
  | Some (_, _, cs) -> cs
  | None -> []

(* Set up [reps] times, keeping the last; the median time is set-up
   time.  Earlier copies are collected before the next is built, so
   peak memory reflects one. *)
let timed_setup ~reps build =
  let times = ref [] and last = ref None in
  for _ = 1 to reps do
    last := None;
    Timed_map.forget_shapes ();
    Gc.compact ();
    let t0 = Clock.monotonic_ns () in
    let x = build () in
    times := secs_since t0 :: !times;
    last := Some x
  done;
  (Arith.percentile_f !times 50.0, Option.get !last)

(* ------------------------------ map-large -------------------------- *)

(* 2^21 keys, half of them bound at the start; inserts and removes are
   equally likely, so about 2^20 stay live. *)
let large_universe = 1 lsl 21

let initially_bound ~seed k = Rng.mix64 (k lxor (seed * 0x9E37)) land 1 = 0

module Large (M : Ct_util.Map_intf.CONCURRENT_MAP with type key = int) = struct
  let build ~seed () =
    let t = M.create () in
    for k = 0 to large_universe - 1 do
      if initially_bound ~seed k then M.insert t k k
    done;
    t

  (* Op [kind] in the low 2 bits (0 find, 1 insert, 2 remove); the key
     above them. *)
  let stream ~seed =
    let rng = Rng.create (seed + 1000) in
    Array.init stream_len (fun _ ->
        let dice = Rng.next_int rng 100 in
        let kind = if dice < 80 then 0 else if dice < 90 then 1 else 2 in
        (Rng.next_int rng large_universe lsl 2) lor kind)

  let initial_model ~seed =
    Bytes.init large_universe (fun k -> if initially_bound ~seed k then '\001' else '\000')

  let loop t ~stop_at ops_arr model =
    let lat = lat_create 3 and meter = meter_create () in
    let errors = ref 0 and n = ref 0 and reads = ref 0 and hits = ref 0 in
    let w0 = Gc.minor_words () in
    let continue = ref true in
    while !continue do
      for _ = 1 to 256 do
        let op = Array.unsafe_get ops_arr (!n land (stream_len - 1)) in
        let k = op lsr 2 in
        let bound = Bytes.unsafe_get model k = '\001' in
        let timed = !n land (lat_every - 1) = 0 in
        let t0 = if timed then Clock.monotonic_ns () else 0 in
        let kind = op land 3 in
        (match kind with
        | 0 -> (
            incr reads;
            match M.find t k with
            | v ->
                incr hits;
                if (not bound) || v <> k then incr errors
            | exception Not_found -> if bound then incr errors)
        | 1 ->
            M.insert t k k;
            Bytes.unsafe_set model k '\001'
        | _ -> (
            match M.remove t k with
            | Some v ->
                if (not bound) || v <> k then incr errors;
                Bytes.unsafe_set model k '\000'
            | None -> if bound then incr errors));
        if timed then lat_add lat kind (Clock.monotonic_ns () - t0);
        incr n
      done;
      let now = Clock.monotonic_ns () in
      meter_tick meter ~ops:!n ~now;
      if now >= stop_at then continue := false
    done;
    let words = Gc.minor_words () -. w0 in
    { ops = !n; errors = !errors; words; lat; reads = !reads; read_hits = !hits; rates = measured_rates meter }

  (* Every key agrees with the model, the size matches, and the trie's
     invariants hold. *)
  let verify rep t model =
    let wrong = ref 0 and live = ref 0 in
    Bytes.iteri
      (fun k c ->
        let want = c = '\001' in
        if want then incr live;
        if M.mem t k <> want then incr wrong)
      model;
    R.count rep ~attempted:large_universe ~failed:!wrong;
    if !wrong > 0 then R.error rep "map-large: %d keys differ from the model" !wrong;
    if M.size t <> !live then R.error rep "map-large: size %d, model %d" (M.size t) !live;
    (match M.validate t with
    | Ok () -> ()
    | Error e -> R.error rep "map-large: validate: %s" e);
    !live

  let measure rep t ~seed ~secs =
    let ops_arr = stream ~seed and model = initial_model ~seed in
    Gc.full_major ();
    let gc0 = Gc.quick_stat () in
    let t0 = Clock.monotonic_ns () in
    let o = loop t ~stop_at:(t0 + int_of_float (secs *. 1e9)) ops_arr model in
    let elapsed = secs_since t0 in
    R.count rep ~attempted:o.ops ~failed:o.errors;
    if o.errors > 0 then R.error rep "map-large: %d operations returned a wrong result" o.errors;
    let live = verify rep t model in
    R.note rep "map-large: %d live keys at the end, %d ops in %.2f s" live o.ops elapsed;
    (o, gc0)
end

module Large_plain = Large (Timed_map.Int_cachetrie)
module Large_timed = Large (Timed_map.Timed_cachetrie)

let map_large rep ~seed ~secs ~trace =
  if not trace then begin
    let setup_s, t = timed_setup ~reps:3 (Large_plain.build ~seed) in
    R.set rep "setup_s" setup_s;
    let o, _ = Large_plain.measure rep t ~seed ~secs in
    set_end_to_end rep o ~read_kinds:[ 0 ] ~write_kinds:[ 1; 2 ];
    set_memory rep t
  end
  else begin
    let t = Large_plain.build ~seed () in
    let o, _ = Large_plain.measure rep t ~seed ~secs:(secs /. 2.0) in
    let base_rate = cpu_rate o in
    Gc.compact ();
    Atomic.set Timed_map.every 8;
    let t = Large_timed.build ~seed () in
    Timed_map.reset ();
    Timed_map.Int_cachetrie.reset_stats t;
    let o, gc0 = Large_timed.measure rep t ~seed ~secs:(secs /. 2.0) in
    let rate = cpu_rate o in
    map_layers rep ~ops:o.ops ~counters:(Timed_map.Int_cachetrie.stats t);
    gc_layers rep ~gc0 ~ops:o.ops;
    R.set rep "obs.trace_overhead_pct" ((base_rate -. rate) /. base_rate *. 100.0)
  end

(* ------------------------------ cache-zipf ------------------------- *)

(* Zipf 0.99 over 200k keys, through the bounded tier at its default
   config with a budget of about a tenth of the working set. *)
let zipf_universe = 200_000
let zipf_skew = 0.99

let entry_words =
  Cache.entry_overhead_words + Cache.word_cost (value_of ~len:cache_value_len 0 0)

let budget_words = zipf_universe / 10 * entry_words

module Zipf (M : Ct_util.Map_intf.CONCURRENT_MAP with type key = int) = struct
  module C = Cache.Make (M)

  (* Key in the high bits, 1 in bit 0 for a put. *)
  let stream ~seed =
    let keys =
      Harness.Workload.zipf_keys ~seed:(seed + 7) ~n:stream_len ~universe:zipf_universe
        zipf_skew
    in
    let rng = Rng.create (seed lxor 0xCAC4E) in
    Array.map (fun k -> (k lsl 1) lor if Rng.next_int rng 100 < 10 then 1 else 0) keys

  let load loads k =
    incr loads;
    Some (value_of ~len:cache_value_len k 0)

  (* Fill the tier from the stream until the budget is nearly used, so
     measurement starts from a full cache. *)
  let build ops_arr () =
    let c = C.create ~config:(Cache.default_config ~budget_words) () in
    let loads = ref 0 and i = ref 0 in
    while C.used_words c < budget_words * 9 / 10 && !i < stream_len do
      ignore (C.get_or_load c (ops_arr.(!i) lsr 1) ~load:(load loads));
      incr i
    done;
    c

  let loop c ~stop_at ~traced ops_arr =
    let lat = lat_create 2 and meter = meter_create () in
    let loads = ref 0 in
    let load = load loads in
    let errors = ref 0 and n = ref 0 and gets = ref 0 in
    let w0 = Gc.minor_words () in
    let continue = ref true in
    let check v k =
      match v with
      | Some v when is_value_of ~len:cache_value_len k 0 v -> ()
      | _ -> incr errors
    in
    while !continue do
      for _ = 1 to 256 do
        let op = Array.unsafe_get ops_arr (!n land (stream_len - 1)) in
        let k = op lsr 1 and kind = op land 1 in
        let timed = !n land (lat_every - 1) = 0 in
        let t0 = if timed then Clock.monotonic_ns () else 0 in
        if kind = 0 then begin
          incr gets;
          if timed && traced then
            Obs.Trace.with_ctx (Obs.Trace.make ~sampled:true (!n + 1)) (fun () ->
                check (C.get_or_load c k ~load) k)
          else check (C.get_or_load c k ~load) k
        end
        else ignore (C.put c k (value_of ~len:cache_value_len k 0));
        if timed then lat_add lat kind (Clock.monotonic_ns () - t0);
        incr n
      done;
      if C.used_words c > C.budget_words c then incr errors;
      let now = Clock.monotonic_ns () in
      meter_tick meter ~ops:!n ~now;
      if now >= stop_at then continue := false
    done;
    let words = Gc.minor_words () -. w0 in
    { ops = !n; errors = !errors; words; lat; reads = !gets; read_hits = !gets - !loads; rates = measured_rates meter }

  let measure rep c ops_arr ~secs ~traced =
    (* Before the counters are read: an earlier tier collected later
       would take its counts out of the family's aggregate. *)
    Gc.full_major ();
    let st0 = C.stats c in
    let counters0 = family_counters M.name in
    let gc0 = Gc.quick_stat () in
    let t0 = Clock.monotonic_ns () in
    let o = loop c ~stop_at:(t0 + int_of_float (secs *. 1e9)) ~traced ops_arr in
    let elapsed = secs_since t0 in
    R.count rep ~attempted:o.ops ~failed:o.errors;
    if o.errors > 0 then
      R.error rep "cache-zipf: %d gets returned a wrong value or the budget was overrun" o.errors;
    (match C.validate c with
    | Ok () -> ()
    | Error e -> R.error rep "cache-zipf: validate: %s" e);
    if C.used_words c > C.budget_words c then R.error rep "cache-zipf: over budget at the end";
    R.note rep "cache-zipf: policy %s, budget %d words, %d resident, %d ops in %.2f s"
      (Cache.policy_name (C.config c).Cache.policy) budget_words (C.resident c) o.ops elapsed;
    let counters = counter_delta counters0 (family_counters M.name) in
    (o, gc0, st0, counters)
end

module Zipf_plain = Zipf (Timed_map.Int_cachetrie)
module Zipf_timed = Zipf (Timed_map.Timed_cachetrie)

let cache_zipf rep ~seed ~secs ~trace =
  let ops_arr = Zipf_plain.stream ~seed in
  if not trace then begin
    let setup_s, c = timed_setup ~reps:15 (Zipf_plain.build ops_arr) in
    R.set rep "setup_s" setup_s;
    let o, _, _, _ = Zipf_plain.measure rep c ops_arr ~secs ~traced:false in
    set_end_to_end rep o ~read_kinds:[ 0 ] ~write_kinds:[ 1 ];
    set_memory rep c
  end
  else begin
    let c = Zipf_plain.build ops_arr () in
    let o, _, _, _ = Zipf_plain.measure rep c ops_arr ~secs:(secs /. 2.0) ~traced:false in
    let base_rate = cpu_rate o in
    Gc.compact ();
    let sink = Obs.Trace.create ~size:(1 lsl 16) () in
    Obs.Trace.install sink;
    Atomic.set Timed_map.every 8;
    let c = Zipf_timed.build ops_arr () in
    Timed_map.reset ();
    let o, gc0, st0, counters = Zipf_timed.measure rep c ops_arr ~secs:(secs /. 2.0) ~traced:true in
    Obs.Trace.uninstall ();
    let ops = o.ops in
    let fops = float_of_int ops in
    let st = Zipf_timed.C.stats c in
    R.set rep "cache.loads_per_op" (float_of_int (o.reads - o.read_hits) /. fops);
    R.set rep "cache.evictions_per_op" (float_of_int (st.Cache.evictions - st0.Cache.evictions) /. fops);
    R.set rep "cache.rejections_per_op" (float_of_int (st.Cache.rejections - st0.Cache.rejections) /. fops);
    R.set rep "cache.used_frac"
      (float_of_int (Zipf_timed.C.used_words c) /. float_of_int (Zipf_timed.C.budget_words c));
    let spans stage =
      Array.of_list
        (List.filter_map
           (fun (s : Obs.Trace.span) -> if s.stage = stage then Some s.dur_ns else None)
           (Obs.Trace.spans sink))
    in
    R.set rep "cache.lookup_ns_p50" (pct (spans Obs.Trace.Cache_lookup) 50.0);
    R.set rep "cache.load_ns_p50" (pct (spans Obs.Trace.Cache_load) 50.0);
    (* The tier's map sees its own operations, not ours: rates are per
       benchmark operation. *)
    map_layers rep ~ops ~counters;
    gc_layers rep ~gc0 ~ops;
    let rate = cpu_rate o in
    R.set rep "obs.trace_overhead_pct" ((base_rate -. rate) /. base_rate *. 100.0)
  end
