(** Byte-size constants and formatting. *)

val kib : int -> int
val mib : int -> int

val pp : int -> string
(** ["4 KiB"], ["1 MiB"], ["512 B"]. Exact multiples only get a unit. *)
