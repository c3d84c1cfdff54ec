(* Pins the benchmark's arithmetic: tail percentile choice, float
   percentiles, span self time and failure accounting. *)

open Perfbench_lib

let check name cond = if not cond then failwith ("test_arith: " ^ name)

let () =
  (* Ten samples beyond the percentile, never fewer. *)
  check "p99 needs 1000" (Arith.tail_pct ~want:99.0 1000 = Some 99.0);
  check "999 falls to p98" (Arith.tail_pct ~want:99.0 999 = Some 98.0);
  check "p99.9 at 10000" (Arith.tail_pct ~want:99.9 10_000 = Some 99.9);
  check "9999 falls to p99" (Arith.tail_pct ~want:99.9 9_999 = Some 99.0);
  check "200 gives p95" (Arith.tail_pct ~want:99.0 200 = Some 95.0);
  check "20 gives p50" (Arith.tail_pct ~want:99.0 20 = Some 50.0);
  check "9 gives none" (Arith.tail_pct ~want:99.0 9 = None);
  check "want caps" (Arith.tail_pct ~want:50.0 100_000 = Some 50.0);
  let s = Array.init 1000 (fun i -> i + 1) in
  check "nearest rank p99" (Arith.percentile_sorted s 99.0 = 990);
  check "nearest rank p50" (Arith.percentile_sorted s 50.0 = 500);
  check "beyond p99" (Arith.beyond 1000 99.0 = 10);
  check "float p50 odd" (Arith.percentile_f [ 3.0; 1.0; 2.0 ] 50.0 = 2.0);
  check "float p50 even" (Arith.percentile_f [ 4.0; 1.0; 3.0; 2.0 ] 50.0 = 2.0);
  check "float p90" (Arith.percentile_f (List.init 10 (fun i -> float_of_int (10 - i))) 90.0 = 9.0);
  check "float empty" (Arith.percentile_f [] 90.0 = 0.0);
  (* Self time: parent [0,100) with children [10,30) and [20,50)
     overlapping, and [90,120) sticking out of the parent. *)
  check "no children" (Arith.self_time ~start:0 ~dur:100 [] = 100);
  check "overlap counted once"
    (Arith.self_time ~start:0 ~dur:100 [ (10, 20); (20, 30) ] = 60);
  check "clipped to parent"
    (Arith.self_time ~start:0 ~dur:100 [ (10, 20); (20, 30); (90, 30) ] = 50);
  check "nested grandchild adds nothing"
    (Arith.self_time ~start:0 ~dur:100 [ (10, 40); (20, 10) ] = 60);
  check "child outside" (Arith.self_time ~start:100 ~dur:10 [ (0, 50) ] = 10);
  check "full cover" (Arith.self_time ~start:5 ~dur:10 [ (0, 50) ] = 0);
  (* A typed refusal counts as failed, as does a drop. *)
  let o = Arith.outcome_of_reply in
  let outcomes =
    [|
      o (Some (Kv.Protocol.Value "x"));
      o (Some Kv.Protocol.Nil);
      o (Some (Kv.Protocol.Overloaded Kv.Protocol.Queue_full));
      o (Some Kv.Protocol.Read_only);
      o None;
    |]
  in
  check "refusal" (outcomes.(2) = Arith.Refused && outcomes.(3) = Arith.Refused);
  check "nil is an answer" (outcomes.(1) = Arith.Answered);
  check "drop" (outcomes.(4) = Arith.Dropped);
  check "failed_frac" (Arith.failed_frac outcomes = 0.6);
  check "empty" (Arith.failed_frac [||] = 0.0);
  print_endline "test_arith: ok"
