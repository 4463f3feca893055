(** splitmix64 as a native [Int64] kernel: the one 64-bit mix under
    {!Rng} (draws) and {!Wire} (on-media checksums).

    Dune's dev profile compiles with [-opaque], which boxes every
    [int64] that crosses a module boundary. So no [int64] leaves this
    module on a hot path: generator state lives in 8 bytes of [Bytes],
    and draws and checksums come out as tagged ints. Only {!next64}
    returns a boxed [int64], for tests and benchmarks.

    RNG sequences and checksum bytes are simulated values. The
    differential suites in test_util.ml pin both bit for bit against
    the boxed [Int64] reference. *)

type state
(** A generator's 64-bit state. *)

val create : int -> state
(** [create seed] starts from [Int64.of_int seed]. *)

val split : state -> state
(** [split s] advances [s] and starts a new state at the draw. *)

val next64 : state -> int64
(** The next raw 64-bit draw (boxed). *)

val next62 : state -> int
(** The low 62 bits of the next draw, non-negative. *)

val next53 : state -> int
(** The high 53 bits of the next draw. *)

val fold : init:int -> Bytes.t -> pos:int -> len:int -> int
(** [fold ~init b ~pos ~len] hashes [b[pos..pos+len)] into the low 62
    bits of a splitmix64 state. Four independent lanes each absorb one
    little-endian 64-bit word of every 32-byte stride, so their
    multiplies overlap; the lanes then fold into one hash, followed by
    the leftover words, the trailing bytes and [len]. Allocates nothing.
    No bounds check: the caller must ensure [0 <= pos], [0 <= len] and
    [pos + len <= Bytes.length b]. *)
