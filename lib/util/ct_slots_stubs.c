/* CAS on an arbitrary field of a heap block: Atomic_slots.cas_field,
 * used by Atomic_slots.Flat for slot arrays and by the cache-trie for
 * the slots of its ANode blocks and the txn field of its leaf blocks.
 *
 * caml_atomic_cas_field is the runtime primitive behind
 * Atomic.compare_and_set (an Atomic.t is a 1-field block CASed at
 * index 0); it performs a sequentially-consistent CAS and runs the
 * GC write barrier on success, so storing young pointers into major
 * blocks is safe.  Exported by <caml/memory.h> since OCaml 5.0. */

#include <caml/mlvalues.h>
#include <caml/memory.h>

CAMLprim value ct_slots_cas_stub(value blk, value idx, value oldv, value newv)
{
  return Val_bool(caml_atomic_cas_field(blk, Long_val(idx), oldv, newv));
}
