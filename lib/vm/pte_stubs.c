/* Aurora's whole-mapping leaf passes over one window [s0, s1] of a
   page-table leaf (an OCaml int array of PTE words). Both are
   [@@noalloc]: they never allocate, raise or release the runtime lock.
   They do no bounds checks: Pte.shadow_leaf and Pte.collapse_leaf check
   the window and the scratch length before each call.

   A slot holds an immediate, and each pass stores only immediates back,
   so plain loads and stores through Op_val need no write barrier
   (ocamlopt emits the same for an int array); Field's volatile access
   would keep the compiler from vectorizing. The passes work on the
   tagged words directly, without untagging, and rewrite every slot
   without a branch on its bits. Every mask and test is an AND or a
   logical shift of an unsigned word: SSE2 has no 64-bit vector
   multiply, compare or arithmetic shift, so the default clone would
   have to emulate them. The library builds this file at -O3.

   The masks are Pte's flag bits; test_vm pins them against Pte. */

#include <caml/mlvalues.h>

#define PTE_PRESENT 1
#define PTE_WRITABLE 2
#define PTE_COW 4

/* Bit b of a PTE is bit b + 1 of its tagged word. */
#define TAGGED(bit) ((uintnat)(bit) << 1)
#define T_PRESENT TAGGED(PTE_PRESENT)
#define T_WRITABLE TAGGED(PTE_WRITABLE)
#define T_COW TAGGED(PTE_COW)

/* How far a tagged flag sits above T_PRESENT (a constant). */
#define SHIFT(flag) __builtin_ctzll((flag) / T_PRESENT)

/* [flag] (a tagged mask above T_PRESENT) if word [w] is present, else
   0: the present bit shifted onto the flag's position. */
#define IF_PRESENT(w, flag) (((w) & T_PRESENT) << SHIFT(flag))

/* T_PRESENT if word [w] is present and writable (dirty), else 0: the
   writable bit shifted down onto the present bit. */
#define IF_DIRTY(w) ((w) & ((w) >> SHIFT(T_WRITABLE)) & T_PRESENT)

/* Shadow works in blocks of this many slots (the window's last block
   may be shorter). */
#define BLOCK 16

/* Each kernel is compiled for x86-64-v3 (AVX2) and the default ISA,
   and the loader picks the clone the host supports (an ifunc). Every
   clone is the same C source, integer arithmetic only, so every clone
   writes the same words and returns the same counts and indices; the
   clones differ in vector width. There is no x86-64-v4 clone: on an
   AVX-512 host it shadowed within noise of v3 and collapsed slower
   (timings per clone in EXPERIMENTS.md), so a v4 host runs v3.
   lib/util/wire_stubs.c guards its clones the same way and keeps v4,
   where the checksum gains from it. Other compilers and targets build
   the plain functions. */
#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__) \
    && __GNUC__ >= 12
#define KERNEL_CLONES \
  __attribute__((target_clones("arch=x86-64-v3", "default")))
#else
#define KERNEL_CLONES
#endif

/* One block of shadow over pte[0, n): rewrite every slot, set flag[i]
   to 1 if slot i was dirty (tested on the word as read, before its
   rewrite), add T_PRESENT per present slot to *present, and return
   nonzero if any slot was dirty. Branch-free; with n = BLOCK the loop
   has a constant trip count and vectorizes whole. */
static inline uintnat shadow_block(uintnat *pte, intnat n, uintnat *flag,
                                   uintnat *present)
{
  uintnat any = 0, p = 0;
  for (intnat i = 0; i < n; i++) {
    uintnat w = pte[i], d = IF_DIRTY(w);
    flag[i] = d / T_PRESENT;
    any |= d;
    p += w & T_PRESENT;
    pte[i] = (w | IF_PRESENT(w, T_COW)) & ~IF_PRESENT(w, T_WRITABLE);
  }
  *present += p;
  return any;
}

/* Append the dirty slots of a block starting at slot [s]: each index is
   stored, and [nd] moves past it only if its flag is set. The store
   past the last dirty slot stays inside the scratch, which is at least
   as long as the window. */
static inline uintnat compact_block(value *out, uintnat nd, intnat s, intnat n,
                                    const uintnat *flag)
{
  for (intnat i = 0; i < n; i++) {
    out[nd] = Val_long(s + i);
    nd += flag[i];
  }
  return nd;
}

/* Shadow: every present slot becomes read-only and COW; the indices of
   the slots that were present and writable (the dirty set) go to
   dirty[0, nd) in ascending order. Slots that are not present are left
   as they are. Only a block that held a dirty slot is compacted, so a
   clean block costs one vector pass. Returns present + nd * 2^32. */
KERNEL_CLONES
static uintnat shadow(uintnat *pte, intnat s0, intnat s1, value *out)
{
  uintnat flag[BLOCK], present = 0, nd = 0;
  intnat s = s0;
  for (; s + BLOCK - 1 <= s1; s += BLOCK)
    if (shadow_block(pte + s, BLOCK, flag, &present))
      nd = compact_block(out, nd, s, BLOCK, flag);
  if (s <= s1 && shadow_block(pte + s, s1 - s + 1, flag, &present))
    nd = compact_block(out, nd, s, s1 - s + 1, flag);
  return (present / T_PRESENT) | (nd << 32);
}

/* Collapse: clear COW on every present slot. Returns the number of
   present slots. The mask doubles as the count (T_COW per present
   slot), which saves the default clone an instruction per vector. */
KERNEL_CLONES
static uintnat collapse(uintnat *pte, intnat s0, intnat s1)
{
  uintnat present = 0;
  for (intnat s = s0; s <= s1; s++) {
    uintnat w = pte[s], cow = IF_PRESENT(w, T_COW);
    present += cow;
    pte[s] = w & ~cow;
  }
  return present / T_COW;
}

value msnap_pte_shadow_leaf(value slots, value vs0, value vs1, value dirty)
{
  return Val_long(shadow((uintnat *)Op_val(slots), Long_val(vs0),
                         Long_val(vs1), Op_val(dirty)));
}

value msnap_pte_collapse_leaf(value slots, value vs0, value vs1)
{
  return Val_long(collapse((uintnat *)Op_val(slots), Long_val(vs0),
                           Long_val(vs1)));
}
