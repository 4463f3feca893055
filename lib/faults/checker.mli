(** The crash-schedule model checker: record one crash-free run of a
    scripted workload, then systematically crash it at every durable
    boundary (with seeded torn tails) and demand that the engine's
    recovery lands on a candidate step of the value history.

    Every crash point is the replayable integer pair
    [(prefix, torn_seed)]; checking is deterministic host work, so a
    [-j] run produces bit-for-bit the serial report. *)

type workload = {
  w_name : string;
  w_device : unit -> Msnap_blockdev.Device.t;
      (** A fresh device, the same geometry every call, registered for
          teardown with the running simulation ([Sched.on_exit]). *)
  w_run :
    Msnap_blockdev.Device.t -> Msnap_blockdev.Record.t -> History.t;
  w_recoverable : (module Recoverable.S);
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
