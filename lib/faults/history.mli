(** The value history of a scripted crash workload.

    A workload appends one {!step} per durably-acknowledged operation
    (transaction commit, persist, fsync), carrying the full expected
    engine state at that point and the number of device boundaries the
    attached {!Msnap_blockdev.Record} had captured when the ack
    returned. The checker later crashes the schedule at boundary [k]
    and asks the engine's [check] to show the recovered state equals
    {e some} candidate step: acked work may never be lost (steps below
    {!lower_bound} are excluded), while unacked-but-complete work may
    surface (steps above it are allowed).

    Convention: a workload calls {!mark_ready} and records its first
    step (the post-setup state) as soon as setup completes, so every
    boundary at or after {!ready} has at least one candidate. *)

type step = {
  s_label : string;
  s_state : (string * string) list;
  s_acked : int;
}

type t

val create : unit -> t

val mark_ready : t -> Msnap_blockdev.Record.t -> unit
(** Boundaries before this point may legitimately be unmountable
    (formatting was still in flight). *)

val step :
  t -> Msnap_blockdev.Record.t -> label:string ->
  state:(string * string) list -> unit
(** Record one acked operation and the full expected state after it. *)

val nsteps : t -> int
val ready : t -> int

val boundary : t -> int
(** The boundary index the media image was crashed at, as given to
    {!with_boundary}; -1 on the recorded history itself. *)

val with_boundary : t -> int -> t
(** A shallow copy carrying its own boundary — what the checker hands to
    parallel check tasks so they never mutate the shared history. *)

val lower_bound : t -> int
(** Newest step acked at or before {!boundary} (-1 if none): recovery
    may not surface anything older. *)

val candidates : t -> step list
(** The acceptable recovered states for {!boundary}, oldest first. *)

val pp_state : (string * string) list -> string
