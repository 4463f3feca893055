(* Helpers shared by the suites that boot whole machines. *)

module Device = Msnap_blockdev.Device

(* [let& x = (v, dispose) in e] is [e] with [x] bound to [v], and
   [dispose v] registered to run when the enclosing [Sched.run]
   returns ([Sched.on_exit]: newest first, and not at all if the run
   raises). *)
let ( let& ) (v, dispose) f = Msnap_sim.Sched.on_exit (fun () -> dispose v); f v

(* A fresh 2 x [mib] MiB testbed with its disposal, for [let&]. *)
let testbed ~mib = (Device.testbed ~mib, Device.dispose)

(* A case over a fresh 2 x [mib] MiB testbed, disposed when its run
   returns. *)
let in_dev ~mib f () =
  Msnap_sim.Sched.run (fun () ->
      let& dev = testbed ~mib in
      f dev)

(* Pooled buffers handed out and not yet recycled, over every class.
   They live outside the OCaml heap and nothing reclaims a dropped one. *)
let outstanding () = (Msnap_util.Pool.totals ()).Msnap_util.Pool.t_outstanding
