(** The COW object store backing MemSnap μCheckpoints.

    A key-value store of named objects, each an independently-versioned COW
    radix tree of 4 KiB blocks (§3, "Persisting MemSnap Regions"). It does
    direct IO — no buffer cache, no POSIX file semantics — and commits a
    μCheckpoint in two device steps:

    + one vectored write placing new data blocks and the COW node path into
      free space (sequential when space allows);
    + one atomic sector write flipping the object header to the new radix
      root and epoch.

    Crashes anywhere leave the previous epoch intact: every object is
    restorable from its last committed header independent of any global
    state. Objects carry a monotonic epoch so concurrent μCheckpoints to
    different objects never serialize on each other; commits to the same
    object are group-committed in arrival order. *)

type t
type obj

exception Corrupt of string

val format : Msnap_blockdev.Device.t -> unit
(** Initialize an empty store on the volume (any {!Msnap_blockdev.Device}
    backend). *)

val mount : Msnap_blockdev.Device.t -> t
(** Recover: pick the newest valid superblock, load the directory and
    object headers, and rebuild the allocator by walking every tree.
    Raises [Corrupt] when no valid superblock exists. *)

val create : t -> name:string -> ?meta:int -> unit -> obj
(** Create an empty object (durable before returning). Raises
    [Invalid_argument] if the name exists. *)

val open_obj : t -> name:string -> obj option
val delete : t -> obj -> unit
val list_objects : t -> string list

val epoch : obj -> int
val size_bytes : obj -> int
val meta : obj -> int
val set_meta : t -> obj -> int -> unit
(** Durable metadata update (one header write). *)

(** {2 μCheckpoint commits} *)

type ticket = unit Msnap_sim.Sync.cell
(** Completion of an in-flight commit: [Ok ()] once it is durable, or the
    exception that failed it. Commits to one object are group-committed
    ({!Msnap_sim.Sync.Group}): a device failure during a round fails that
    round's commits and every commit queued behind it, each through its
    own ticket, and leaves the previous epoch intact. Wait with
    {!Msnap_sim.Sync.await}. *)

val commit : t -> obj -> (int * Bytes.t) list -> int
(** [commit t obj pages] durably applies [(page_index, 4 KiB image)] pairs
    as one atomic checkpoint and returns the new epoch. Zero-copy: the
    scatter/gather list references the page frames directly, so the
    buffers must not change until the commit is durable (MemSnap
    guarantees this with its checkpoint-in-progress COW — the ownership
    rule of the data plane). Raises if the device fails mid-commit —
    the store itself stays consistent (the previous epoch is intact).

    With no other thread committing to the object, it is simulated as
    {!commit_async} followed by {!Msnap_sim.Sync.await}: the same epoch,
    clock, device IO, tids and exception. The worker is a one-job
    {!Msnap_sim.Sync.fork_join}, so when nothing else is due it runs in
    the caller's fiber instead of a thread of its own. The one intended
    difference: inside that worker, {!Msnap_sim.Sched.self} is the
    caller. (The caller returns when its worker does, so a caller whose
    worker leads a group round that other commits to the object join
    returns after those rounds too. Aurora and the objstore crash
    script, its callers outside the tests, never commit to one object
    from two threads at once.) *)

val commit_async : ?flow:int -> t -> obj -> (int * Bytes.t) list -> int * ticket
(** Initiate the commit and return [(epoch, ticket)] after the CPU-side
    setup; the IO proceeds on a worker thread. [flow] (a
    [Msnap_sim.Trace.new_flow] id, 0 = none) links the commit's trace
    events into the originating μCheckpoint's flow; it has no effect on
    simulation. *)

val read_block : t -> obj -> int -> Bytes.t option
(** Read back one 4 KiB block ([None] = hole). Charged device read. *)

val read_block_into : t -> obj -> int -> Bytes.t -> bool
(** Read one block directly into the caller's 4 KiB buffer (typically a
    page frame), avoiding the staging allocation of {!read_block}.
    Returns [false] (buffer untouched) on a hole. *)

val grow : t -> obj -> size_bytes:int -> unit
(** Record a larger logical size (next header commit persists it). *)

val dispose : t -> unit
(** End-of-run teardown: return every cached radix node image to
    [Msnap_util.Pool]. Valid only once the store is idle and never used
    again (no commit in flight, no later read). *)

val free_blocks : t -> int
