/* Payload copies between OCaml bytes and an off-heap medium chunk
   (a char Bigarray). Both are [@@noalloc]: they never allocate, raise
   or release the runtime lock. They do no bounds checks: Disk.Medium
   checks every offset and length before each call. */

#include <string.h>
#include <caml/mlvalues.h>
#include <caml/bigarray.h>

/* bytes[spos, spos+len) -> chunk[dpos, dpos+len) */
value msnap_medium_blit_in(value src, value spos, value dst, value dpos,
                           value len)
{
  memcpy((char *)Caml_ba_data_val(dst) + Long_val(dpos),
         Bytes_val(src) + Long_val(spos), Long_val(len));
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
