(* The one recovery contract every engine implements. Engine libraries
   expose factory functions returning a packed [(module S)] whose
   closure carries engine configuration (region names, filesystem kind,
   database names), so the checker and the crashcheck CLI drive msnap,
   the object store, sqlite, rocks, pg and the file system through the
   same two calls. There is no teardown call: [recover] registers what
   it mounts with the running simulation ([Sched.on_exit]), so it is
   disposed when the run returns, whether [check] passed or not. *)

exception Unmountable of string
(* [recover] found no consistent on-media state to mount. Acceptable
   only for crashes before the workload's [History.ready] point
   (formatting still in flight); a failure anywhere else. *)

exception Check_failed of string
(* The recovered state matches no candidate step of the history. *)

module type S = sig
  type t

  val label : string

  val recover : Msnap_blockdev.Device.t -> t
  (* Mount and recover the engine from the raw post-crash device, inside
     a [Sched.run]. Registers the teardown of everything it mounts with
     [Sched.on_exit], as it mounts it (the device is the caller's).
     Raises [Unmountable] when no consistent state exists on media. *)

  val check : t -> History.t -> unit
  (* Verify the recovered state equals some candidate step of the
     history (the crash boundary is [History.boundary]). Raises
     [Check_failed]. *)
end

let fail fmt = Printf.ksprintf (fun s -> raise (Check_failed s)) fmt

(* Shared helper: does the recovered key-value state match some
   candidate step? Raises [Check_failed] with the floor and recovered
   state otherwise. [state] must use the same encoding the workload's
   steps used. *)
let check_state ~label history state =
  let matches step =
    let sort = List.sort compare in
    sort step.History.s_state = sort state
  in
  if not (List.exists matches (History.candidates history)) then
    fail "%s: recovered state at boundary %d matches no step >= %d: %s"
      label (History.boundary history)
      (History.lower_bound history)
      (History.pp_state state)
