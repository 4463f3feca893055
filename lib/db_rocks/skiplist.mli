(** Volatile skip list over string keys, generic in its payload: the
    baseline MemTable ({!Rocks.Memtable}) and {!Pskiplist}'s recomputed
    skip pointers are both one.

    Levels are drawn with p = 1/4 up to 12 from the list's own seeded
    RNG. A descent charges one [Sched.cpu] hop per probe, each level's
    failing probe included, and [iter_from] one per node before handing
    it over. Mutators are not synchronized: a caller that yields between
    a descent and its link owns that path meanwhile. *)

type 'a node = private { key : string; mutable value : 'a; next : 'a node array }
type 'a t

val create : ?seed:int -> 'a -> 'a t
(** The payload is the head sentinel's (default seed [0x5C1B]). *)

val succ : 'a node -> 'a node
(** The level-0 successor: a node, or the end sentinel. *)

val is_end : 'a t -> 'a node -> bool
val set_value : 'a node -> 'a -> unit
val draw_level : 'a t -> int

val holds : 'a t -> 'a node -> string -> bool
(** A node (not the end) with this key. *)

val path : 'a t -> 'a node array
(** A fresh path: the head at every level. *)

val pred0 : 'a t -> string -> 'a node
(** The charged descent to the key's level-0 predecessor. *)

val find_path : 'a t -> string -> 'a node array -> 'a node
(** [pred0], recording each level's predecessor in the path. *)

val link : 'a t -> 'a node array -> string -> 'a -> level:int -> unit
(** Link a node after the path, past any node below the key linked
    since the descent (uncharged). *)

val unlink : 'a t -> 'a node array -> 'a node -> unit
(** Unlink a node, searching from the path as [link] does. *)

val append : 'a t -> 'a node array -> string -> 'a -> unit
(** Uncharged append in ascending key order (recovery): draw a level and
    link after the tails, which start as a fresh {!path} and advance. *)

val find : 'a t -> string -> 'a option

val iter_from : 'a t -> string -> (string -> 'a -> bool) -> unit
(** Pairs with key >= the bound, in order, while the callback returns
    [true]. *)

val iter : 'a t -> (string -> 'a -> unit) -> unit
(** Every pair in order, uncharged. *)

val clear : 'a t -> unit
