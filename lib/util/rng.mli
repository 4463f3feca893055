(** Deterministic pseudo-random number generation.

    All randomness in the simulator flows through seeded [Rng.t] values so
    that every experiment is reproducible bit-for-bit. The generator is
    splitmix64, which is fast, has a full 64-bit state, and supports cheap
    splitting for independent per-thread streams. *)

type t

val create : int -> t
(** [create seed] makes a fresh generator from an integer seed. *)

val split : t -> t
(** [split t] derives an independent generator; [t] advances. *)

val bits64 : t -> int64
(** Next raw 64 bits. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. Requires [bound > 0]. *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] is uniform in [\[lo, hi\]] inclusive. *)

val float : t -> float
(** Uniform in [\[0, 1)]. *)

val bool : t -> bool

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)

val bytes : t -> int -> Bytes.t
(** [bytes t n] is [n] random bytes. *)

val string : t -> int -> string
(** [string t n] is [n] random bytes as a string, without the extra
    copy of [bytes t n |> Bytes.to_string]. Same draw sequence. *)
