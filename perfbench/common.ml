(* Small pieces shared by the served and in-process workloads. *)

module Clock = Ct_util.Clock
module Rng = Ct_util.Rng

(* System calls from pb_stubs.c. *)
external set_timerslack_ns : int -> bool = "pb_set_timerslack_ns"
external thread_cpu_ns : unit -> int = "pb_thread_cpu_ns" [@@noalloc]
external peak_rss_kb : unit -> int = "pb_peak_rss_kb"
external fs_magic : string -> int = "pb_fs_magic"

(* The value stored under [k] at version [ver]: [len] bytes (a
   multiple of 8), a pure function of both, so a reply can be checked
   by recomputing it. *)
let value_of ~len k ver =
  let b = Bytes.create len in
  for i = 0 to (len / 8) - 1 do
    Bytes.set_int64_le b (8 * i)
      (Int64.of_int (Rng.mix64 ((k * 1_000_003) + (ver * 7919) + i)))
  done;
  Bytes.unsafe_to_string b

(* Served values are 32 bytes, the cache tier's 64. *)
let kv_value_len = 32
let cache_value_len = 64

(* Does [v] equal [value_of ~len k ver]?  Allocation-free. *)
let is_value_of ~len k ver v =
  String.length v = len
  &&
  let ok = ref true in
  for i = 0 to (len / 8) - 1 do
    if
      String.get_int64_le v (8 * i)
      <> Int64.of_int (Rng.mix64 ((k * 1_000_003) + (ver * 7919) + i))
    then ok := false
  done;
  !ok

(* A growable buffer of int samples, for one thread's use. *)
module Buf = struct
  type t = { mutable a : int array; mutable n : int }

  let create () = { a = Array.make 1024 0; n = 0 }

  let add t x =
    if t.n = Array.length t.a then begin
      let a = Array.make (2 * t.n) 0 in
      Array.blit t.a 0 a 0 t.n;
      t.a <- a
    end;
    t.a.(t.n) <- x;
    t.n <- t.n + 1

  let to_array t = Array.sub t.a 0 t.n
end

(* A sample buffer several threads and domains may feed. *)
module Shared_buf = struct
  type t = { mu : Mutex.t; buf : Buf.t }

  let create () = { mu = Mutex.create (); buf = Buf.create () }
  let add t x = Mutex.protect t.mu (fun () -> Buf.add t.buf x)
  let to_array t = Mutex.protect t.mu (fun () -> Buf.to_array t.buf)
  let clear t = Mutex.protect t.mu (fun () -> t.buf.Buf.n <- 0)
end

(* Percentile [p] of raw ns samples, in [scale] units (1e3 for us);
   0 when there are none. *)
let pct ?(scale = 1.0) samples p =
  if Array.length samples = 0 then 0.0
  else float_of_int (Arith.percentile_sorted (Arith.sorted_copy samples) p) /. scale

(* The "p99" a sample count supports (see [Arith.tail_pct]). *)
let tail ?(scale = 1.0) samples =
  match Arith.tail_pct ~want:99.0 (Array.length samples) with
  | Some p -> (pct ~scale samples p, p)
  | None -> (0.0, 0.0)

(* Peak resident set of this process, MB (the kernel's VmHWM). *)
let peak_rss_mb () = float_of_int (peak_rss_kb ()) /. 1024.0

(* Words the OCaml heap holds live after a full major collection, in
   MB: the memory the data needs, without the free space the collector
   keeps, whose size depends on when its cycles happened to end. *)
let live_heap_mb () =
  Gc.full_major ();
  float_of_int ((Gc.stat ()).Gc.live_words * (Sys.word_size / 8)) /. 1048576.0

(* CPU time of this whole process (all threads), s. *)
let process_cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* Stolen and total CPU time of the whole machine so far, in clock
   ticks, from the first line of /proc/stat; zeros where it cannot be
   read.  Steal is time the hypervisor gave this machine's virtual
   CPUs to other tenants. *)
let cpu_ticks () =
  match In_channel.with_open_text "/proc/stat" In_channel.input_line with
  | Some line -> (
      match List.filter (( <> ) "") (String.split_on_char ' ' line) with
      | "cpu" :: fields ->
          let f = Array.of_list (List.map int_of_string fields) in
          (* user nice system idle iowait irq softirq steal ... *)
          ((if Array.length f > 7 then f.(7) else 0), Array.fold_left ( + ) 0 f)
      | _ -> (0, 0))
  | None | (exception _) -> (0, 0)

(* Steal as a share of all CPU time since [cpu_ticks] read [before], %. *)
let steal_pct (s0, t0) =
  let s1, t1 = cpu_ticks () in
  if t1 > t0 then 100.0 *. float_of_int (s1 - s0) /. float_of_int (t1 - t0) else 0.0

let secs_since t0 = float_of_int (Clock.monotonic_ns () - t0) /. 1e9

(* Remove a directory tree (the run's own scratch store). *)
let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let dir_bytes dir =
  Array.fold_left
    (fun acc f ->
      match Unix.stat (Filename.concat dir f) with
      | st when st.Unix.st_kind = Unix.S_REG -> acc + st.Unix.st_size
      | _ -> acc
      | exception Unix.Unix_error _ -> acc)
    0
    (try Sys.readdir dir with Sys_error _ -> [||])

(* The filesystem type holding [dir], by its statfs magic number. *)
let fs_type dir =
  match fs_magic dir with
  | 0xEF53 -> "ext4"
  | 0x58465342 -> "xfs"
  | 0x9123683E -> "btrfs"
  | 0x01021994 -> "tmpfs"
  | 0x794C7630 -> "overlayfs"
  | -1 -> "unknown"
  | m -> Printf.sprintf "statfs type 0x%x" m
