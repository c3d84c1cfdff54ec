(* Run an int-keyed test battery against a generic map with its keys
   boxed.  [Make (Maker)] is an INT_MAKER whose structure is
   [Maker] instantiated over a one-field record key: every key the map
   stores is a heap block that the GC may move, key equality goes
   through the hashable's [equal] rather than [int] comparison, and a
   lookup key is a fresh block that is never physically equal to the
   stored one.  Hashes are those of the wrapped int hashable, so
   collision batteries keep their collisions.

   The cache-trie's nodes are hand-built blocks (DESIGN.md §8); with
   int keys every pointer they hold is to another node, so only this
   adapter has the trie's leaves point at ordinary heap data. *)

open Ct_util

type key = { k : int }

module Make (Maker : Map_intf.MAKER) (H : Hashing.HASHABLE with type t = int) :
  Map_intf.CONCURRENT_MAP with type key = int = struct
  module M = Maker (struct
    type t = key

    let equal a b = H.equal a.k b.k
    let hash b = H.hash b.k
  end)

  type nonrec key = int
  type 'v t = 'v M.t

  let box k = { k }
  let name = M.name ^ "-boxed"
  let create = M.create
  let lookup t k = M.lookup t (box k)
  let find t k = M.find t (box k)
  let mem t k = M.mem t (box k)
  let insert t k v = M.insert t (box k) v
  let add t k v = M.add t (box k) v
  let put_if_absent t k v = M.put_if_absent t (box k) v
  let replace t k v = M.replace t (box k) v
  let replace_if t k ~expected v = M.replace_if t (box k) ~expected v
  let remove t k = M.remove t (box k)
  let remove_if t k ~expected = M.remove_if t (box k) ~expected
  let find_batch t keys ~miss out = M.find_batch t (Array.map box keys) ~miss out
  let insert_batch t keys vals = M.insert_batch t (Array.map box keys) vals
  let remove_batch t keys = M.remove_batch t (Array.map box keys)
  let size = M.size
  let is_empty = M.is_empty
  let fold f acc t = M.fold (fun acc b v -> f acc b.k v) acc t
  let iter f t = M.iter (fun b v -> f b.k v) t
  let to_list t = List.map (fun (b, v) -> (b.k, v)) (M.to_list t)
  let footprint_words = M.footprint_words
  let validate = M.validate
  let metrics = M.metrics
  let stats = M.stats
  let reset_stats = M.reset_stats
  let scrub = M.scrub
end
