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
   without a branch on its bits, so the collapse loop vectorizes (the
   library builds this file at -O3).

   The masks are Pte's flag bits; test_vm pins them against Pte. */

#include <caml/mlvalues.h>

#define PTE_PRESENT 1
#define PTE_WRITABLE 2
#define PTE_COW 4

/* Bit b of a PTE is bit b + 1 of its tagged word. */
#define TAGGED(bit) ((intnat)(bit) << 1)
#define T_PRESENT TAGGED(PTE_PRESENT)
#define T_WRITABLE TAGGED(PTE_WRITABLE)
#define T_COW TAGGED(PTE_COW)

/* [flag] (a tagged mask above T_PRESENT) if word [w] is present, else
   0: the present bit shifted onto the flag's position. */
#define IF_PRESENT(w, flag) (((w) & T_PRESENT) * ((flag) / T_PRESENT))

/* Shadow: every present slot becomes read-only and COW; the indices of
   the slots that were present and writable (the dirty set) go to
   dirty[0, nd) in ascending order. Slots that are not present are left
   as they are. Returns present + nd * 2^32. */
value msnap_pte_shadow_leaf(value slots, value vs0, value vs1, value dirty)
{
  value *pte = Op_val(slots), *out = Op_val(dirty);
  intnat s1 = Long_val(vs1), present = 0, nd = 0;
  for (intnat s = Long_val(vs0); s <= s1; s++) {
    intnat w = pte[s];
    present += w & T_PRESENT;
    if ((w & (T_PRESENT | T_WRITABLE)) == (T_PRESENT | T_WRITABLE))
      out[nd++] = Val_long(s);
    pte[s] = (w | IF_PRESENT(w, T_COW)) & ~IF_PRESENT(w, T_WRITABLE);
  }
  return Val_long((present / T_PRESENT) | (nd << 32));
}

/* Collapse: clear COW on every present slot. Returns the number of
   present slots. */
value msnap_pte_collapse_leaf(value slots, value vs0, value vs1)
{
  value *pte = Op_val(slots);
  intnat s1 = Long_val(vs1), present = 0;
  for (intnat s = Long_val(vs0); s <= s1; s++) {
    intnat w = pte[s];
    present += w & T_PRESENT;
    pte[s] = w & ~IF_PRESENT(w, T_COW);
  }
  return Val_long(present / T_PRESENT);
}
