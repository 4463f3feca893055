(** Translation lookaside buffer model.

    Tracks which translations are cached so that access costs and
    shootdowns are charged faithfully: a hit costs nothing extra, a miss
    charges a page-table walk, and protection changes must invalidate —
    selectively below [Costs.tlb_flush_threshold] pages, a full flush
    above, matching MemSnap's policy in §3.

    Each cached translation carries a host-side payload of type ['a]: the
    address space stores the {!Ptloc.t} of the PTE so a simulated TLB hit
    also skips the host-side radix-tree walk. The payload changes nothing
    simulated — hit/miss accounting and eviction are payload-blind.

    The implementation is flat (open-addressed int table + FIFO ring):
    lookup, insertion and eviction allocate nothing in steady state. On a
    miss the payload slot is the [absent] sentinel supplied at creation,
    so no [option] boxing happens on the hot path. *)

type 'a t

val create : ?entries:int -> absent:'a -> unit -> 'a t
(** Default capacity 1536 (Skylake-SP L2 STLB). FIFO replacement.
    [absent] is the payload sentinel returned by {!hit_payload} after a
    missed {!probe}. *)

val probe : 'a t -> int -> bool
(** [probe t vpn] returns [true] and counts a hit if the translation is
    cached (its payload is then available via {!hit_payload}), else
    counts a miss and returns [false]. Never inserts; the caller charges
    walk cost and calls {!insert} once it has the payload. *)

val hit_payload : 'a t -> 'a
(** Payload stashed by the immediately preceding {!probe} on this TLB
    ([absent] if it missed). Only valid until the next operation. *)

val insert : 'a t -> int -> 'a -> unit
(** Cache a translation, evicting FIFO when full. Inserting must happen
    at access time (before any page-in the access triggers), exactly as
    hardware installs the entry during the walk — a page-in can shoot
    the fresh entry down again, and later accesses must see that. *)

val update : 'a t -> int -> 'a -> unit
(** [update t vpn payload] replaces the payload iff [vpn] is still
    cached; a no-op otherwise. No eviction, no hit/miss accounting. *)

val invalidate_page : 'a t -> int -> unit
val flush : 'a t -> unit

val shootdown : ?n:int -> 'a t -> int list -> unit
(** Invalidate the given pages, charging IPI + per-page costs, or a full
    flush if the list exceeds the threshold. [n], when given, must equal
    [List.length vpns] — it lets a caller that already knows the length
    avoid a second traversal. *)

val hits : 'a t -> int
val misses : 'a t -> int
