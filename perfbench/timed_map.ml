(* A timing functor over any [CONCURRENT_MAP], used only by traced
   runs.  One operation in [every] (per domain) is bracketed by the
   monotonic clock and by [Gc.minor_words], and its duration lands in
   a per-domain ring of raw samples, so percentiles are exact rather
   than bucketed.  Operations keep their meaning: every call goes to
   the wrapped map. *)

module Clock = Ct_util.Clock
module Map_intf = Ct_util.Map_intf

type kind = Find | Insert | Remove

let kind_index = function Find -> 0 | Insert -> 1 | Remove -> 2
let ring = 1 lsl 17

type buf = {
  samples : int array array;  (* per kind, a ring of durations in ns *)
  counts : int array;  (* per kind, samples ever recorded *)
  mutable tick : int;
  mutable words : int;  (* minor words allocated inside timed ops *)
  mutable timed : int;
}

let all_bufs : buf list ref = ref []
let bufs_mu = Mutex.create ()

let buf_key =
  Domain.DLS.new_key (fun () ->
      let b =
        {
          samples = Array.init 3 (fun _ -> Array.make ring 0);
          counts = Array.make 3 0;
          tick = 0;
          words = 0;
          timed = 0;
        }
      in
      Mutex.protect bufs_mu (fun () -> all_bufs := b :: !all_bufs);
      b)

(* Time one operation in [every]; a power of two. *)
let every = Atomic.make 1

let reset () =
  Mutex.protect bufs_mu (fun () ->
      List.iter
        (fun b ->
          Array.fill b.counts 0 3 0;
          b.words <- 0;
          b.timed <- 0)
        !all_bufs)

(* Every resident sample of [kind], across domains. *)
let samples kind =
  let i = kind_index kind in
  Mutex.protect bufs_mu (fun () ->
      Array.concat
        (List.map
           (fun b -> Array.sub b.samples.(i) 0 (min ring b.counts.(i)))
           !all_bufs))

(* Minor words per timed operation. *)
let words_per_op () =
  Mutex.protect bufs_mu (fun () ->
      let w, n =
        List.fold_left (fun (w, n) b -> (w + b.words, n + b.timed)) (0, 0)
          !all_bufs
      in
      if n = 0 then 0.0 else float_of_int w /. float_of_int n)

let sampled b =
  b.tick <- b.tick + 1;
  b.tick land (Atomic.get every - 1) = 0

let stop b kind t0 dw =
  let i = kind_index kind in
  b.samples.(i).(b.counts.(i) land (ring - 1)) <- Clock.monotonic_ns () - t0;
  b.counts.(i) <- b.counts.(i) + 1;
  b.words <- b.words + dw;
  b.timed <- b.timed + 1

(* Trie shape for maps that have one (the cache-trie); the functor
   remembers how to read it for every map it creates. *)
type shape = { depth_histogram : int array; cache_level : int }

let shapes : (unit -> shape option) list ref = ref []

module Make
    (M : Map_intf.CONCURRENT_MAP)
    (P : sig
      val shape : 'v M.t -> shape option
    end) :
  Map_intf.CONCURRENT_MAP with type key = M.key and type 'v t = 'v M.t =
struct
  include M

  let create () =
    let t = M.create () in
    Mutex.protect bufs_mu (fun () -> shapes := (fun () -> P.shape t) :: !shapes);
    t

  (* The word delta is read before the sample is stored, so the ring
     write is not counted against the operation. *)
  let[@inline] timed kind f =
    let b = Domain.DLS.get buf_key in
    if sampled b then begin
      let w0 = Gc.minor_words () in
      let t0 = Clock.monotonic_ns () in
      let r = f () in
      let dw = int_of_float (Gc.minor_words () -. w0) in
      stop b kind t0 dw;
      r
    end
    else f ()

  let lookup t k = timed Find (fun () -> M.lookup t k)

  let find t k =
    let b = Domain.DLS.get buf_key in
    if sampled b then begin
      let w0 = Gc.minor_words () in
      let t0 = Clock.monotonic_ns () in
      match M.find t k with
      | v ->
          stop b Find t0 (int_of_float (Gc.minor_words () -. w0));
          v
      | exception Not_found ->
          stop b Find t0 (int_of_float (Gc.minor_words () -. w0));
          raise Not_found
    end
    else M.find t k

  let mem t k = timed Find (fun () -> M.mem t k)
  let insert t k v = timed Insert (fun () -> M.insert t k v)
  let add t k v = timed Insert (fun () -> M.add t k v)
  let put_if_absent t k v = timed Insert (fun () -> M.put_if_absent t k v)
  let replace t k v = timed Insert (fun () -> M.replace t k v)

  let replace_if t k ~expected v =
    timed Insert (fun () -> M.replace_if t k ~expected v)

  let remove t k = timed Remove (fun () -> M.remove t k)
  let remove_if t k ~expected = timed Remove (fun () -> M.remove_if t k ~expected)
end

(* The shape of every live map built through [Make] that has one. *)
let current_shapes () =
  Mutex.protect bufs_mu (fun () -> List.filter_map (fun f -> f ()) !shapes)

let forget_shapes () = Mutex.protect bufs_mu (fun () -> shapes := [])

let mean_depth h =
  let n = ref 0 and d = ref 0 in
  Array.iteri
    (fun i c ->
      n := !n + c;
      d := !d + (i * c))
    h;
  if !n = 0 then 0.0 else float_of_int !d /. float_of_int !n

module Int_cachetrie = Cachetrie.Make (Ct_util.Hashing.Int_key)

let cachetrie_shape t =
  Some
    {
      depth_histogram = Int_cachetrie.depth_histogram t;
      cache_level =
        (match (Int_cachetrie.cache_stats t).Cachetrie.cache_level with
        | Some l -> l
        | None -> 0);
    }

module Timed_cachetrie =
  Make
    (Int_cachetrie)
    (struct
      let shape = cachetrie_shape
    end)
