/* The device medium's host side: payload copies between OCaml bytes and
   an off-heap medium chunk (a char Bigarray view of Msnap_util.Pool slab
   memory, which starts on a 64-byte line).
   The copies and the fence are [@@noalloc]: they never allocate, raise
   or release the runtime lock. They do no bounds checks: Disk.Medium
   checks every offset and length before each call.

   A write into the medium stands for the device's DMA, which never
   passes through the CPU caches, so on SSE2 targets it streams every
   whole 64-byte line of the destination with non-temporal stores and
   copies only the partial lines at either end. Streaming stores are
   weakly ordered: Disk calls [msnap_medium_fence] once at the end of
   every command that wrote the medium, never per copy. */

#include <stdint.h>
#include <string.h>
#if defined(__SSE2__)
#include <emmintrin.h>
#endif
#include <caml/mlvalues.h>
#include <caml/bigarray.h>

#define LINE 64

/* bytes[spos, spos+len) -> chunk[dpos, dpos+len) */
value msnap_medium_blit_in(value src, value spos, value dst, value dpos,
                           value len)
{
  char *d = (char *)Caml_ba_data_val(dst) + Long_val(dpos);
  const char *s = (const char *)Bytes_val(src) + Long_val(spos);
  size_t n = Long_val(len);
#if defined(__SSE2__)
  /* [body, end) is the run of whole destination lines. OCaml bytes are
     only word-aligned, so loads are unaligned. */
  char *body = (char *)(((uintptr_t)d + LINE - 1) & ~(uintptr_t)(LINE - 1));
  char *end = (char *)(((uintptr_t)d + n) & ~(uintptr_t)(LINE - 1));
  if (body < end) {
    size_t head = body - d;
    memcpy(d, s, head);
    s += head;
    for (char *p = body; p < end; p += LINE, s += LINE) {
      __m128i a = _mm_loadu_si128((const __m128i *)s);
      __m128i b = _mm_loadu_si128((const __m128i *)(s + 16));
      __m128i c = _mm_loadu_si128((const __m128i *)(s + 32));
      __m128i e = _mm_loadu_si128((const __m128i *)(s + 48));
      _mm_stream_si128((__m128i *)p, a);
      _mm_stream_si128((__m128i *)(p + 16), b);
      _mm_stream_si128((__m128i *)(p + 32), c);
      _mm_stream_si128((__m128i *)(p + 48), e);
    }
    memcpy(end, s, d + n - end);
    return Val_unit;
  }
#endif
  memcpy(d, s, n);
  return Val_unit;
}

/* Orders every streaming store issued so far before any later store. */
value msnap_medium_fence(value unit)
{
  (void)unit;
#if defined(__SSE2__)
  _mm_sfence();
#endif
  return Val_unit;
}

/* chunk[spos, spos+len) -> bytes[dpos, dpos+len) */
value msnap_medium_blit_out(value src, value spos, value dst, value dpos,
                            value len)
{
  memcpy(Bytes_val(dst) + Long_val(dpos),
         (const char *)Caml_ba_data_val(src) + Long_val(spos), Long_val(len));
  return Val_unit;
}
