/* Wire.checksum's kernel: the one checksum of every on-media record
   format. Its bits are media format, so it is plain C with no
   intrinsics: every host computes the same sum. The per-ISA path is
   per-ISA clones of that one C function (below), with the same bits.
   The only host dependence is the byte order of a word load.

   Eight 64-bit accumulators take the eight words of each 64-byte
   stripe. A word [w] in lane [k] of stripe [s] adds
   lo32(x) * hi32(x) + w, where x = w ^ (lane_key[k] + s * GAMMA): one
   multiply per word, and no multiply waits on another. The key moves
   with the stripe index, so the same sector at another offset adds
   something else. Adding [w] itself keeps a word whose masked half is
   zero in the sum, where the product alone would drop it.

   splitmix64's mix then folds, starting from mix(init): the
   accumulators in lane order (only when there is a whole stripe), the
   leftover whole words, the tail bytes (first byte most significant)
   and [len]. The result is the low 62 bits, a non-negative OCaml int.

   The external is [@@noalloc] with untagged arguments: it never
   allocates, raises or releases the runtime lock. It checks nothing;
   both Wire entry points bounds-check [pos, pos + len) first. */

#include <stdint.h>
#include <string.h>
#include <caml/mlvalues.h>

#define GAMMA 0x9E3779B97F4A7C15ULL
#define LANES 8

/* The fractional parts of the square roots of the first eight primes. */
static const uint64_t lane_key[LANES] = {
  0x6A09E667F3BCC908ULL, 0xBB67AE8584CAA73BULL, 0x3C6EF372FE94F82BULL,
  0xA54FF53A5F1D36F1ULL, 0x510E527FADE682D1ULL, 0x9B05688C2B3E6C1FULL,
  0x1F83D9ABFB41BD6BULL, 0x5BE0CD19137E2179ULL,
};

static inline uint64_t mix(uint64_t z)
{
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

static inline uint64_t load64_le(const unsigned char *p)
{
  uint64_t w;
  memcpy(&w, p, sizeof w);
#ifdef ARCH_BIG_ENDIAN
  w = __builtin_bswap64(w);
#endif
  return w;
}

/* The kernel is compiled once per x86-64 ISA level and the loader
   picks the clone the host supports (an ifunc). Every clone is this C
   source, integer arithmetic only, so every clone computes the same
   bits; the clones differ in how wide the compiler vectorizes the eight
   lanes. One 4 KiB page, standalone on an AVX-512 Xeon: about 460 ns
   (default, SSE2), 290 ns (x86-64-v3, AVX2), 180 ns (x86-64-v4,
   AVX-512). Other compilers and targets build the plain function.
   lib/vm/pte_stubs.c guards its clones the same way but builds no v4
   clone, which does not pay there. */
#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__) \
    && __GNUC__ >= 12
#define KERNEL_CLONES \
  __attribute__((target_clones("arch=x86-64-v4", "arch=x86-64-v3", "default")))
#else
#define KERNEL_CLONES
#endif

KERNEL_CLONES
static uint64_t kernel(const unsigned char *p, intnat len, uint64_t init)
{
  uint64_t seed = mix(init), h = seed;
  intnat stripes = len / (8 * LANES), words = len / 8;
  if (stripes > 0) {
    uint64_t acc[LANES], skey = 0;
    for (int k = 0; k < LANES; k++) acc[k] = seed;
    for (intnat s = 0; s < stripes; s++, skey += GAMMA) {
      const unsigned char *q = p + s * (8 * LANES);
      for (int k = 0; k < LANES; k++) {
        uint64_t w = load64_le(q + 8 * k);
        uint64_t x = w ^ (lane_key[k] + skey);
        acc[k] += (x & 0xFFFFFFFFULL) * (x >> 32) + w;
      }
    }
    for (int k = 0; k < LANES; k++) h = mix(h + acc[k]);
  }
  for (intnat i = stripes * LANES; i < words; i++)
    h = mix(h + load64_le(p + 8 * i));
  if (len % 8 != 0) {
    uint64_t tail = 0;
    for (intnat i = words * 8; i < len; i++) tail = (tail << 8) | p[i];
    h = mix(h + tail);
  }
  return mix(h + (uint64_t)len);
}

intnat msnap_wire_checksum(value vb, intnat pos, intnat len, intnat init)
{
  const unsigned char *p = (const unsigned char *)Bytes_val(vb) + pos;
  return (intnat)(kernel(p, len, (uint64_t)init) & 0x3FFFFFFFFFFFFFFFULL);
}

value msnap_wire_checksum_byte(value vb, value pos, value len, value init)
{
  return Val_long(
      msnap_wire_checksum(vb, Long_val(pos), Long_val(len), Long_val(init)));
}
