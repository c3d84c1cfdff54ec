(* The runtime's field CAS: SC success ordering, GC write barrier
   included (same primitive [Atomic.compare_and_set] compiles to, with
   an explicit field index). *)
external cas_field : Obj.t -> int -> Obj.t -> Obj.t -> bool
  = "ct_slots_cas_stub"
[@@noalloc]

module type S = sig
  type 'a t

  val repr : string
  val overhead_words_per_slot : int
  val make : int -> 'a -> 'a t
  val length : 'a t -> int
  val get : 'a t -> int -> 'a
  val set : 'a t -> int -> 'a -> unit
  val cas : 'a t -> int -> 'a -> 'a -> bool
  val prefetch : 'a t -> int -> unit
  val iter : ('a -> unit) -> 'a t -> unit
  val fold : ('acc -> 'a -> 'acc) -> 'acc -> 'a t -> 'acc
end

module Boxed : S = struct
  type 'a t = 'a Atomic.t array

  let repr = "boxed"

  (* Each slot points at a separate [Atomic.t]: 1 header + 1 field. *)
  let overhead_words_per_slot = 2

  let make n v = Array.init n (fun _ -> Atomic.make v)
  let length = Array.length

  (* Debug-build bounds guard.  Every caller derives [i] by masking a
     hash with [length a - 1], so a violation here means the caller's
     probe arithmetic wrapped (the folklore table's circular probing is
     the risky client); [Array.unsafe_get] below would silently read a
     neighbouring object instead of failing.  Compiled out by
     [-noassert]. *)
  let[@inline] check a i = assert (i >= 0 && i < Array.length a)

  let[@inline] get a i =
    check a i;
    Atomic.get (Array.unsafe_get a i)

  let[@inline] set a i v =
    check a i;
    Atomic.set (Array.unsafe_get a i) v

  let[@inline] cas a i expected repl =
    check a i;
    Atomic.compare_and_set (Array.unsafe_get a i) expected repl

  (* Two hops per slot here: warm the box pointer's target.  The array
     cell read may itself miss; this layout pays that, which is the
     point of {!Flat}. *)
  let[@inline] prefetch a i =
    check a i;
    Prefetch.read (Array.unsafe_get a i)

  let iter f a = Array.iter (fun b -> f (Atomic.get b)) a
  let fold f acc a = Array.fold_left (fun acc b -> f acc (Atomic.get b)) acc a
end

module Flat : S = struct
  (* A plain array whose fields are CASed in place.  [Obj.t array] and
     not ['a array] so the compiler can never specialize an access into
     the unboxed-float path; [make] additionally rejects arrays the
     runtime would build with [Double_array_tag]. *)
  type 'a t = Obj.t array

  let repr = "flat"
  let overhead_words_per_slot = 0

  let make n v =
    let a = Array.make n (Obj.repr v) in
    if Obj.tag (Obj.repr a) = Obj.double_array_tag then
      invalid_arg "Atomic_slots.Flat.make: float slots are unsupported";
    a

  let length = Array.length

  (* [Obj.field]/[Obj.set_field] rather than [Array.unsafe_get]/[set]:
     the argument type is already [Obj.t array] so an array access
     would be safe too, but going through [Obj] keeps the float-array
     question out of the generated code entirely.  [Obj.set_field] is
     [caml_modify]: a release store plus the GC write barrier, so a
     reader that sees the new pointer sees the object behind it. *)
  let[@inline] get a i : 'a = Obj.obj (Obj.field (Obj.repr a) i)
  let[@inline] set a i (v : 'a) = Obj.set_field (Obj.repr a) i (Obj.repr v)

  let[@inline] cas a i (expected : 'a) (repl : 'a) =
    cas_field (Obj.repr a) i (Obj.repr expected) (Obj.repr repl)

  (* The slot array IS the node, so the cell address is the miss:
     hint the line without reading the field. *)
  let[@inline] prefetch a i = Prefetch.cell a i

  let iter f a =
    for i = 0 to Array.length a - 1 do
      f (get a i)
    done

  let fold f acc a =
    let acc = ref acc in
    for i = 0 to Array.length a - 1 do
      acc := f !acc (get a i)
    done;
    !acc
end
