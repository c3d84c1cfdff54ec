(* The server process of the served workloads.  It holds the data,
   serves the benchmark's load process over loopback, and answers
   commands on stdin, one per line:

     report  print every counter and layer timing as "name value"
             lines ended by "end", then restart the timing windows
     stop    drain, print "drained <bool>" and a last report, close
             the store and exit

   In a traced run the map is wrapped in [Timed_map], the durable
   hooks are wrapped in timers, and an [Obs.Trace] sink collects the
   spans [Kv.Server] records for sampled requests. *)

open Common
module Metrics = Ct_util.Metrics
module Trace = Obs.Trace

let append_ns = Shared_buf.create ()
let fsync_wait_ns = Shared_buf.create ()

let timed_hooks (h : Kv.Server.durable) =
  {
    h with
    Kv.Server.d_append =
      (fun op ->
        let t0 = Clock.monotonic_ns () in
        let r = h.Kv.Server.d_append op in
        Shared_buf.add append_ns (Clock.monotonic_ns () - t0);
        r);
    d_subscribe =
      (fun ~lsn ~deadline_ns cb ->
        let t0 = Clock.monotonic_ns () in
        h.Kv.Server.d_subscribe ~lsn ~deadline_ns (fun ack ->
            Shared_buf.add fsync_wait_ns (Clock.monotonic_ns () - t0);
            cb ack));
  }

(* Self time per stage over the resident spans of sampled requests.
   A stage's children are the stages [Kv.Server] records inside it. *)
let children_of = function
  | Trace.Request -> [ Trace.Queue_wait; Exec; Fsync_wait ]
  | Exec -> [ Map_op; Wal_append; Cache_lookup; Cache_load ]
  | _ -> []

let span_self_times sink =
  let by_trace = Hashtbl.create 1024 in
  List.iter
    (fun (s : Trace.span) ->
      if s.trace_id <> 0 then
        Hashtbl.replace by_trace s.trace_id
          (s :: (try Hashtbl.find by_trace s.trace_id with Not_found -> [])))
    (Trace.spans sink);
  let out = Array.init Trace.n_stages (fun _ -> Buf.create ()) in
  Hashtbl.iter
    (fun _ spans ->
      List.iter
        (fun (s : Trace.span) ->
          let kids = children_of s.stage in
          let covered =
            List.filter_map
              (fun (c : Trace.span) ->
                if List.mem c.stage kids then Some (c.start_ns, c.dur_ns)
                else None)
              spans
          in
          Buf.add
            out.(Trace.stage_index s.stage)
            (Arith.self_time ~start:s.start_ns ~dur:s.dur_ns covered))
        spans)
    by_trace;
  Array.map Buf.to_array out

module Run (M : Ct_util.Map_intf.CONCURRENT_MAP with type key = int) = struct
  module S = Kv.Server.Make (M)

  let serve ~map ?durable ~wal ~store_dir ~traced () =
    let sink =
      if traced then begin
        let s = Trace.create ~size:(1 lsl 16) () in
        Trace.install s;
        Some s
      end
      else None
    in
    let srv = S.start ?durable map in
    let gc0 = Gc.quick_stat () in
    Printf.printf "ready %d\n%!" (S.port srv);
    let emit name v = Printf.printf "%s %.17g\n" name v in
    let emiti name v = Printf.printf "%s %d\n" name v in
    let report () =
      List.iter (fun (l, v) -> emiti ("srv." ^ l) v) (S.stats srv);
      let lat = S.latency srv in
      let n = Obs.Latency.total lat in
      emiti "acc.n" n;
      if n > 0 then begin
        emit "acc.p50_ns" (Obs.Latency.percentile lat 50.0);
        emit "acc.p99_ns"
          (Obs.Latency.percentile lat
             (Option.value ~default:50.0 (Arith.tail_pct ~want:99.0 n)))
      end;
      Obs.Latency.reset lat;
      List.iter (fun (l, v) -> emiti ("map." ^ l) v) (M.stats map);
      (match Timed_map.current_shapes () with
      | sh :: _ ->
          emit "map.mean_depth" (Timed_map.mean_depth sh.Timed_map.depth_histogram);
          emiti "map.cache_level" sh.cache_level
      | [] -> ());
      if traced then begin
        List.iter
          (fun (k, name) ->
            let s = Timed_map.samples k in
            emit (name ^ ".p50_ns") (pct s 50.0);
            emit (name ^ ".p99_ns") (fst (tail s)))
          [ (Timed_map.Find, "map.find"); (Insert, "map.insert"); (Remove, "map.remove") ];
        emit "map.minor_words_per_op" (Timed_map.words_per_op ());
        Timed_map.reset ()
      end;
      (match sink with
      | Some sink ->
          let self = span_self_times sink in
          List.iter
            (fun st ->
              let a = self.(Trace.stage_index st) in
              let name = "span." ^ Trace.stage_name st in
              emiti (name ^ ".n") (Array.length a);
              emit (name ^ ".p50_ns") (pct a 50.0);
              emit (name ^ ".p99_ns") (fst (tail a)))
            [ Trace.Admission; Queue_wait; Exec; Map_op; Wal_append; Fsync_wait ];
          Trace.reset sink
      | None -> ());
      (match wal with
      | Some (m : Metrics.t) ->
          List.iter
            (fun c -> emiti ("wal." ^ Metrics.label c) (Metrics.get m c))
            Metrics.[ Wal_appends; Wal_fsyncs; Wal_retries; Checkpoints; Checkpoint_records ];
          emiti "wal.store_bytes" (dir_bytes store_dir);
          let a = Shared_buf.to_array append_ns
          and f = Shared_buf.to_array fsync_wait_ns in
          emit "wal.append.p50_ns" (pct a 50.0);
          emit "wal.fsync_wait.p50_ns" (pct f 50.0);
          emit "wal.fsync_wait.p99_ns" (fst (tail f));
          Shared_buf.clear append_ns;
          Shared_buf.clear fsync_wait_ns
      | None -> ());
      let gc = Gc.quick_stat () in
      emiti "gc.minor_collections" (gc.Gc.minor_collections - gc0.Gc.minor_collections);
      emiti "gc.major_collections" (gc.Gc.major_collections - gc0.Gc.major_collections);
      emit "rss.peak_mb" (peak_rss_mb ());
      emit "cpu_s" (process_cpu_s ());
      print_endline "end"
    in
    let rec loop () =
      match input_line stdin with
      | "report" ->
          report ();
          loop ()
      | "stop" | (exception End_of_file) ->
          let ok = S.drain ~timeout:30.0 srv in
          Printf.printf "drained %b\n" ok;
          emit "live_heap_mb" (live_heap_mb ());
          report ()
      | _ -> loop ()
    in
    loop ()
end

module Mem = Run (Timed_map.Int_cachetrie)
module Mem_timed = Run (Timed_map.Timed_cachetrie)
module Dur = Run (Kv.Durable.Map)

module Dur_timed =
  Run
    (Timed_map.Make
       (Kv.Durable.Map)
       (struct
         let shape _ = None
       end))

let main ~durable ~traced ~dir ~universe =
  if durable then begin
    match Kv.Durable.open_ ~dir () with
    | Error _ -> failwith "server: cannot open the store"
    | Ok (st, _) ->
        let hooks = Kv.Durable.hooks st in
        let wal = Some (Kv.Durable.metrics st) in
        let map = Kv.Durable.map st in
        if traced then
          Dur_timed.serve ~map ~durable:(timed_hooks hooks) ~wal ~store_dir:dir
            ~traced ()
        else Dur.serve ~map ~durable:hooks ~wal ~store_dir:dir ~traced ();
        (match Kv.Durable.close st with
        | Ok () -> ()
        | Error _ -> failwith "server: store did not close cleanly");
        print_endline "closed"
  end
  else begin
    let prefill insert =
      for k = 0 to universe - 1 do
        insert k (value_of ~len:kv_value_len k 0)
      done
    in
    if traced then begin
      let map = Timed_map.Timed_cachetrie.create () in
      prefill (Timed_map.Int_cachetrie.insert map);
      Timed_map.reset ();
      Mem_timed.serve ~map ~wal:None ~store_dir:dir ~traced ()
    end
    else begin
      let map = Timed_map.Int_cachetrie.create () in
      prefill (Timed_map.Int_cachetrie.insert map);
      Mem.serve ~map ~wal:None ~store_dir:dir ~traced ()
    end
  end;
  print_endline "bye"
