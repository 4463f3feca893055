/* Host memory for Msnap_util.Pool: 2 MiB slabs mapped outside the OCaml
   heap, and the two ways a slab is handed out — as an out-of-heap
   [bytes] block, or as an external char Bigarray view.

   The C side keeps no state: Pool holds every slab base and bump cursor
   in its per-domain store and checks every offset and length before
   each call (the stub bounds rule). The stubs check nothing.

   Slabs are never unmapped, and an out-of-heap block is never freed: the
   GC neither marks, sweeps nor counts a block whose header has the
   NOT_MARKABLE colour (caml/address_class.h), so a buffer that nobody
   recycles is lost to the pool until the process exits. */

#include <stdint.h>
#include <sys/mman.h>
#include <caml/mlvalues.h>
#include <caml/bigarray.h>
#include <caml/fail.h>

#define SLAB ((uintptr_t)2 << 20)

/* Maps [len] bytes (a positive multiple of SLAB) aligned on SLAB, so a
   transparent huge page can back each slab, and returns the base
   address as an OCaml int. The alignment slack on either side is the
   only memory ever unmapped. */
value msnap_slab_map(value len)
{
  uintptr_t n = Long_val(len);
  char *p = mmap(NULL, n + SLAB, PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (p == MAP_FAILED) caml_raise_out_of_memory();
  uintptr_t base = ((uintptr_t)p + SLAB - 1) & ~(SLAB - 1);
  uintptr_t head = base - (uintptr_t)p;
  if (head > 0) munmap(p, head);
  munmap((char *)(base + n), SLAB - head);
#ifdef MADV_HUGEPAGE
  /* Best effort: without THP the slab is plain 4 KiB pages. */
  madvise((void *)base, n, MADV_HUGEPAGE);
#endif
  return Val_long(base);
}

/* A [bytes] of length [len] whose header sits at [base + off]: the
   header word, then wosize = len / 8 + 1 words holding the bytes and
   the padding byte, laid out as [caml_alloc_string] lays them out. */
value msnap_slab_bytes(value base, value off, value len)
{
  mlsize_t n = Long_val(len);
  mlsize_t wosize = (n + sizeof(value)) / sizeof(value);
  header_t *hp = (header_t *)(Long_val(base) + Long_val(off));
  *hp = Caml_out_of_heap_header(wosize, String_tag);
  value v = Val_hp(hp);
  mlsize_t last = Bsize_wsize(wosize) - 1;
  Field(v, wosize - 1) = 0;
  Byte(v, last) = last - n;
  return v;
}

/* A char Bigarray over [base + off, base + off + len). External: the GC
   frees only the small proxy block, never the slab memory. */
value msnap_slab_view(value base, value off, value len)
{
  return caml_ba_alloc_dims(CAML_BA_CHAR | CAML_BA_C_LAYOUT | CAML_BA_EXTERNAL,
                            1, (void *)(Long_val(base) + Long_val(off)),
                            Long_val(len));
}

/* Whether [b]'s header carries the out-of-heap colour that
   [msnap_slab_bytes] writes: true exactly for blocks carved from a
   slab, since no block the GC allocates is ever given that colour. */
value msnap_slab_owns(value b)
{
  return Val_bool(Color_hd(Hd_val(b)) == Color_hd(Caml_out_of_heap_header(0, 0)));
}
