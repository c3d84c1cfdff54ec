(* The benchmark's own arithmetic: percentiles over raw samples, the
   tail percentile a sample count can support, span self time, and request accounting.  Kept free of I/O so test_arith.ml can pin it. *)

(* 1-based nearest rank of percentile [p] among [n] samples; the
   epsilon keeps 99.9% of 10000 at rank 9990 despite float rounding. *)
let rank n p = int_of_float (Float.ceil ((p /. 100.0 *. float_of_int n) -. 1e-9))

(* Nearest-rank percentile of an ascending array: the smallest sample
   with at least [p]% of the samples at or below it. *)
let percentile_sorted (s : int array) p =
  let n = Array.length s in
  if n = 0 then invalid_arg "Arith.percentile_sorted: no samples";
  s.(max 0 (min (n - 1) (rank n p - 1)))

let sorted_copy (a : int array) =
  let c = Array.copy a in
  Array.sort Int.compare c;
  c

(* Samples strictly above the nearest-rank [p] position. *)
let beyond n p = n - rank n p

(* The highest percentile no higher than [want], from a fixed ladder,
   that leaves at least ten samples beyond it: a p99 over 500 samples
   would rest on five of them, so it is reported as the p98 it can
   support instead.  [None] below ten samples. *)
let ladder = [ 99.9; 99.0; 98.0; 95.0; 90.0; 75.0; 50.0 ]

let tail_pct ~want n =
  List.find_opt (fun p -> p <= want && beyond n p >= 10) ladder

(* Nearest-rank percentile [p] of floats; 0 when there are none.
   Set-up time is the p50 of repeated set-ups, and in-process
   throughput the p90 over the run's intervals. *)
let percentile_f xs p =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then 0.0 else a.(max 0 (min (n - 1) (rank n p - 1)))

(* Length of [start, start + dur) that the union of [children]
   (each [(start, dur)]) does not cover; children are clipped to the
   parent interval first, and overlapping children count once. *)
let self_time ~start ~dur children =
  let stop = start + dur in
  let clipped =
    List.filter_map
      (fun (s, d) ->
        let s' = max s start and e' = min (s + d) stop in
        if e' > s' then Some (s', e') else None)
      children
    |> List.sort compare
  in
  let covered, _ =
    List.fold_left
      (fun (acc, reach) (s, e) ->
        let s = max s reach in
        if e > s then (acc + (e - s), e) else (acc, reach))
      (0, start) clipped
  in
  dur - covered

(* What became of one request.  [Refused] covers every typed answer
   that is not the operation's result: sheds, deadline misses,
   [Read_only], [Shutting_down], bad request and server errors. *)
type outcome = Answered | Refused | Dropped

let outcome_of_reply : Kv.Protocol.reply option -> outcome = function
  | None -> Dropped
  | Some
      ( Kv.Protocol.Value _ | Nil | Stored _ | Removed | Pong ) ->
      Answered
  | Some
      ( Overloaded _ | Deadline_exceeded | Shutting_down | Bad_request _
      | Server_error _ | Read_only ) ->
      Refused

(* Requests not answered ok over requests attempted; a refusal and a
   drop both count as failed. *)
let failed_frac outcomes =
  let n = Array.length outcomes in
  if n = 0 then 0.0
  else
    let bad =
      Array.fold_left (fun acc o -> if o = Answered then acc else acc + 1) 0
        outcomes
    in
    float_of_int bad /. float_of_int n
