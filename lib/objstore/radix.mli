(** COW radix trees mapping object block index to disk block address.

    The paper's object store keeps each object's data in a copy-on-write
    radix tree ("block based, no extent fragmentation under frequent
    snapshots"). A μCheckpoint produces a *batch* COW update: new data
    blocks are attached, every node on a path to a change is rewritten to
    fresh blocks, and the replaced nodes are reported for deferred freeing.
    Nothing is persisted here — the caller writes the returned node images
    and flips the object header.

    A node is its on-disk image: 512 little-endian u64 block pointers in
    a pooled 4 KiB buffer ({!Msnap_util.Pool}). A COW copy is one blit
    into a fresh image, which is then both the cached node and the device
    write's payload. Images are read through an abstract [read_node]
    callback (so the module does not depend on the device) and are never
    mutated; [update_batch] writes only the fresh images it returns. *)

type node = Bytes.t
(** A block-sized image of 512 little-endian u64 block pointers; 0 = hole. *)

val capacity : height:int -> int
(** Data blocks addressable by a tree of the given height (height 0 = 0). *)

type update_result = {
  new_root : int;
  new_height : int;
  node_writes : (int * node) list;
      (** fresh blocks with their images (pooled, owned by the caller) *)
  freed : int list;  (** superseded node blocks and data blocks *)
  nodes_visited : int;  (** for CPU cost accounting *)
}

val update_batch :
  read_node:(int -> node) ->
  alloc:(int -> int list) ->
  root:int ->
  height:int ->
  (int * int) list ->
  update_result
(** [update_batch ~read_node ~alloc ~root ~height updates] applies
    [(index, data_block)] pairs. [alloc n] must return [n] fresh blocks. *)

val lookup :
  read_node:(int -> node) -> root:int -> height:int -> int -> int
(** Data block for an index, or [0] for a hole. *)

val iter :
  read_node:(int -> node) ->
  root:int ->
  height:int ->
  f:(index:int -> block:int -> unit) ->
  unit
(** Visit every present data block. *)

val iter_nodes :
  read_node:(int -> node) -> root:int -> height:int -> f:(int -> unit) -> unit
(** Visit every tree-node block (used to rebuild the allocator at mount). *)
