(** Growable ring buffer of ints — a flat [int Queue.t] with O(1)
    push/pop that never allocates per element. *)

type t

val create : ?initial:int -> unit -> t
val length : t -> int
val is_empty : t -> bool
val push : t -> int -> unit

val pop : t -> int
(** Oldest element, or [-1] when empty. *)

val clear : t -> unit
