(** splitmix64 as a native [Int64] kernel: the generator under {!Rng}.
    ({!Wire.checksum} folds with the same mix, in its C kernel.)

    Dune's dev profile compiles with [-opaque], which boxes every
    [int64] that crosses a module boundary. So no [int64] leaves this
    module on a hot path: generator state lives in 8 bytes of [Bytes],
    and draws come out as tagged ints. Only {!next64} returns a boxed
    [int64], for tests and benchmarks.

    RNG sequences are simulated values. The differential suite in
    test_util.ml pins them bit for bit against the boxed [Int64]
    reference. *)

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

