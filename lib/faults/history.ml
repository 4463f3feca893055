module Record = Msnap_blockdev.Record

type step = {
  s_label : string;
  s_state : (string * string) list; (* full expected state after the ack *)
  s_acked : int; (* boundary count when the durable ack returned *)
}

type t = {
  mutable h_steps : step list; (* newest first *)
  mutable h_nsteps : int;
  mutable h_ready : int; (* boundary count once setup finished; -1 = never *)
}

let create () = { h_steps = []; h_nsteps = 0; h_ready = -1 }

let mark_ready t record = t.h_ready <- Record.boundaries record

let step t record ~label ~state =
  let s =
    { s_label = label; s_state = state; s_acked = Record.boundaries record }
  in
  t.h_steps <- s :: t.h_steps;
  t.h_nsteps <- t.h_nsteps + 1

let steps t = Array.of_list (List.rev t.h_steps)
let nsteps t = t.h_nsteps
let ready t = t.h_ready

(* Index of the newest step whose ack preceded the crash boundary: the
   recovery floor. -1 when the crash predates every ack. *)
let lower_bound t ~boundary =
  let rec go best i = function
    | [] -> best
    | s :: tl ->
      let best = if s.s_acked <= boundary && i > best then i else best in
      go best (i - 1) tl
  in
  go (-1) (t.h_nsteps - 1) t.h_steps

(* The candidate states a correct recovery may surface: every step from
   the floor up (a crash can expose unacked-but-complete work, never
   lose acked work). *)
let candidates t ~boundary =
  let all = steps t in
  let lb = max 0 (lower_bound t ~boundary) in
  Array.to_list (Array.sub all lb (Array.length all - lb))

let pp_state state =
  String.concat "; "
    (List.map (fun (k, v) -> Printf.sprintf "%s=%S" k v) state)
