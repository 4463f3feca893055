(** The value history of a scripted crash workload.

    A workload appends one {!step} per durably-acknowledged operation
    (transaction commit, persist, fsync), carrying the full expected
    engine state at that point and the number of device boundaries the
    attached {!Msnap_blockdev.Record} had captured when the ack
    returned. The checker later crashes the schedule at boundary [k]
    and demands that the recovered state equal {e some} candidate
    step: acked work may never be lost (steps below {!lower_bound} are
    excluded), while unacked-but-complete work may surface (steps above
    it are allowed).

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

val lower_bound : t -> boundary:int -> int
(** Newest step acked at or before crash boundary [boundary] (-1 if
    none): recovery may not surface anything older. *)

val candidates : t -> boundary:int -> step list
(** The acceptable recovered states for a crash at [boundary], oldest
    first. *)

val pp_state : (string * string) list -> string
