(* Entry point.  [bench --workload W --seed N --seconds S --trace T]
   runs one workload and prints its metrics, then the JSON result as
   the last line; it exits 1 when a correctness check failed.
   [bench serve ...] is the server process the served workloads
   start. *)

open Perfbench_lib

let workloads = [ "kv-read"; "kv-durable"; "map-large"; "cache-zipf" ]

let () =
  (* A peer that went away must surface as EPIPE, not end the process. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let args = Array.to_list Sys.argv |> List.tl in
  let rec opts acc = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        opts ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | [] -> acc
    | x :: _ -> failwith ("bench: unexpected argument " ^ x)
  in
  match args with
  | "serve" :: rest ->
      let o = opts [] rest in
      let get k = List.assoc k o in
      Server_proc.main ~durable:(bool_of_string (get "durable"))
        ~traced:(get "trace" = "1") ~dir:(get "dir")
        ~universe:(int_of_string (get "universe"))
  | _ ->
      let o = opts [] args in
      let get k =
        match List.assoc_opt k o with
        | Some v -> v
        | None -> failwith ("bench: missing --" ^ k)
      in
      let workload = get "workload" in
      if not (List.mem workload workloads) then
        failwith ("bench: unknown workload " ^ workload);
      let seed = int_of_string (get "seed")
      and secs = float_of_string (get "seconds")
      and trace = get "trace" = "1"
      and work = get "work" in
      (try Unix.mkdir work 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
      let rep = Report.create () in
      Report.note rep "workload %s, seed %d, %.0f s, trace %b, nproc %d" workload seed
        secs trace (Domain.recommended_domain_count ());
      let ticks0 = Common.cpu_ticks () in
      Fun.protect ~finally:Served.kill_all (fun () ->
          match workload with
          | "kv-read" -> Served.kv_read rep ~work ~seed ~secs ~trace
          | "kv-durable" -> Served.kv_durable rep ~work ~seed ~secs ~trace
          | "map-large" -> Inproc.map_large rep ~seed ~secs ~trace
          | _ -> Inproc.cache_zipf rep ~seed ~secs ~trace);
      Report.note rep "host steal during the run: %.1f%% of CPU time" (Common.steal_pct ticks0);
      if not (Report.print rep ~trace) then exit 1
