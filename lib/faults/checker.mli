(** The crash-schedule model checker: record one crash-free run of a
    scripted workload, then systematically crash it at every durable
    boundary (with seeded torn tails) and demand that the engine's
    recovery lands on a candidate step of the value history.

    An engine joins by its ordinary recovery function: the workload's
    crash script wraps it in {!workload.w_recover}, which mounts the
    device and returns a dump of the recovered state in the encoding
    its history steps use. The checker compares that dump once, for
    every engine.

    Every crash point is the replayable integer pair
    [(prefix, torn_seed)]; checking is deterministic host work, so a
    [-j] run produces bit-for-bit the serial report. *)

exception Unmountable of string
(** Raised by [w_recover] when no consistent on-media state exists.
    Acceptable only for crashes before the workload's {!History.ready}
    point (formatting still in flight); a failure anywhere else. *)

exception Check_failed of string
(** The recovered state is not what the crash script can accept. *)

val fail : ('a, unit, string, 'b) format4 -> 'a
(** Raise {!Check_failed} with a formatted message. *)

type workload = {
  w_name : string;
  w_device : unit -> Msnap_blockdev.Device.t;
      (** A fresh device, the same geometry every call, registered for
          teardown with the running simulation ([Sched.on_exit]). *)
  w_run :
    Msnap_blockdev.Device.t -> Msnap_blockdev.Record.t -> History.t;
  w_recover : Msnap_blockdev.Device.t -> unit -> (string * string) list;
      (** Mount and recover the engine from the raw post-crash device,
          inside the point's [Sched.run], registering the teardown of
          what it mounts with [Sched.on_exit]; raise {!Unmountable} when
          the media holds no mountable state. The returned closure
          dumps the recovered state. Before {!History.ready} it is
          never called; from there on, the dump must equal the state of
          some candidate step ({!History.candidates}), else the point
          fails with ["<w_name>: recovered state at boundary K matches
          no step >= L: ..."]. An exception other than [Unmountable]
          from the mount, or other than {!Check_failed} from the dump,
          fails the point at any boundary. *)
}

type failure = { f_prefix : int; f_torn_seed : int; f_msg : string }

type report = {
  r_workload : string;
  r_boundaries : int;
  r_steps : int;
  r_points : int;
  r_failures : failure list;
}

type opts = {
  seeds : int list;
  max_points : int;
  sample_seed : int;
  jobs : int;
}

val default_opts : opts
(** [{seeds = [1;2;3]; max_points = 600; sample_seed = 1; jobs = 1}].
    [jobs] counts domains in total, the caller's included, as
    [bench/main.exe -j] does: [jobs - 1] pool workers check crash
    points beside the caller, and 1 (or less) is serial. *)

val points : boundaries:int -> opts:opts -> (int * int) list
(** The crash points the checker will visit, canonical order:
    exhaustive cross product when it fits [max_points], else a seeded
    reservoir sample. *)

val run : ?opts:opts -> workload -> report

val pp_report : report -> string
