(** Slotted-page format for the B+tree, SQLite-style.

    A 4 KiB page is either a leaf (cells carry key+value) or an interior
    node (cells carry child+separator key; keys ≤ separator live in that
    child, keys greater than every separator live in [right_child]). Cell
    pointers grow from the header; cell bodies grow from the page tail.

    Layout:
    {v
    0      u8   page type (1 = leaf, 2 = interior)
    1-2    u16  cell count
    3-4    u16  content start (lowest used tail offset)
    5-6    u16  fragmented free bytes
    7-10   u32  right child page (interior only)
    11..   u16  cell pointer array
    v} *)

type kind = Leaf | Interior

val size : int (* 4096 *)

val init : Bytes.t -> kind -> unit
val kind_of : Bytes.t -> kind
val ncells : Bytes.t -> int
val right_child : Bytes.t -> int
val set_right_child : Bytes.t -> int -> unit

val free_space : Bytes.t -> int
(** Usable bytes for one more cell (pointer included), after compaction:
    an insert of a cell of [free_space b] bytes or fewer succeeds. *)

val cell_size : Bytes.t -> int -> int
(** Bytes the body of cell [i] occupies (its pointer excluded). *)

(** {2 Cell access}

    Keys and values are copied out only by the functions returning
    [string]; comparisons and searches read the page in place. *)

val leaf_key : Bytes.t -> int -> string
val leaf_value : Bytes.t -> int -> string

val interior_child : Bytes.t -> int -> int
val set_interior_child : Bytes.t -> int -> int -> unit
val interior_key : Bytes.t -> int -> string
(** Separator key of interior cell [i]. *)

val compare_key : Bytes.t -> int -> string -> int
(** [compare_key page i key] orders cell [i]'s key against [key] like
    [String.compare] (up to sign), without copying the stored key. *)

val search : Bytes.t -> string -> int
(** Binary search among cell keys, compared in place: [i >= 0] when cell
    [i] holds the key, [-(i + 1)] when the key is absent and belongs
    before cell [i]. Allocates nothing. *)

(** {2 Mutation} *)

val leaf_insert_at : Bytes.t -> int -> key:string -> value:string -> bool
(** Insert at cell index [i]; [false] if the page is full even after
    compaction. *)

val interior_insert_at : Bytes.t -> int -> child:int -> key:string -> bool

val delete_at : Bytes.t -> int -> unit

val truncate : Bytes.t -> int -> unit
(** [truncate page n] drops every cell from index [n] on. *)

val move_cells : Bytes.t -> from:int -> Bytes.t -> unit
(** [move_cells src ~from dst] appends cells [from..ncells src) of [src],
    in order, to [dst] (a page of the same kind with room for them), and
    truncates [src] to its first [from] cells. Cell bodies are copied
    byte for byte. *)

val interior_cell_size : key:string -> int
