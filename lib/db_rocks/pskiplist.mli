(** Persistent skip list — the paper's §7.2 MemSnap MemTable.

    Each node occupies its own 4 KiB page of a persistent region
    (property ②: one data-structure node per OS page), holding the key,
    the value and the [next] link of the underlying singly linked list.
    Skip pointers are deliberately *volatile*: only the linked list needs
    crash consistency, and the index is recomputed from it at recovery —
    the optimization §7.2 describes.

    An insert dirties exactly two pages (the new node and its
    predecessor's [next] field); an in-place update dirties one. Each node
    carries a lock that the writer holds from the pointer update until the
    μCheckpoint commits, the paper's replacement for RocksDB's CAS
    (property ③).

    The structure is storage-agnostic: it talks to its region through
    {!region_ops}, so the same code runs over MemSnap (persist =
    [msnap_persist]) and Aurora (persist = region checkpoint). *)

type region_ops = {
  ro_write : off:int -> Bytes.t -> unit;
  ro_read_into : off:int -> Bytes.t -> pos:int -> len:int -> unit;
      (** Read into a caller-owned buffer — keys and values come back in
          a single copy (the buffer becomes the result string). *)
  ro_persist : unit -> unit;
      (** Make the calling thread's writes durable (one transaction). *)
  ro_pages : int;  (** Region capacity in pages. *)
}

type t

val create : ?seed:int -> region_ops -> t
(** Initialize a fresh list (writes and persists the head sentinel). *)

val recover : ?seed:int -> region_ops -> t
(** Rebuild from a persisted region: traverses the linked list and
    recomputes the skip-pointer index. *)

val insert : t -> key:string -> value:string -> unit
(** Insert or update, then persist — one μCheckpoint per call. *)

val insert_batch : t -> (string * string) list -> unit
(** WriteCommitted batch: apply all pairs, then persist once —
    the transaction's atomic unit. *)

val find : t -> string -> string option
val delete : t -> string -> bool

val iter_from : t -> string -> (string -> string -> bool) -> unit
val count : t -> int

