(* All primitives park through Sched.Waitq: an intrusive FIFO whose
   links live inside the (pooled) wakers, so blocking allocates nothing
   beyond the suspend closure. Wake orders are exactly the seed's:
   Mutex/Condition/Semaphore/Ivar all FIFO. *)

module Waitq = Sched.Waitq

module Mutex = struct
  type t = { mutable locked : bool; waiters : Waitq.t }

  let create () = { locked = false; waiters = Waitq.create () }

  let lock t =
    if not t.locked then t.locked <- true
    else Sched.suspend (fun w -> Waitq.add t.waiters w)
  (* Ownership passes directly to the woken waiter: [locked] stays true. *)

  let unlock t =
    if not t.locked then invalid_arg "Mutex.unlock: not locked";
    if Waitq.is_empty t.waiters then t.locked <- false
    else Sched.wake (Waitq.take t.waiters)

  let with_lock t f =
    lock t;
    Fun.protect ~finally:(fun () -> unlock t) f
end

module Condition = struct
  type t = { waiters : Waitq.t }

  let create () = { waiters = Waitq.create () }

  let wait t m =
    (* Park first, then release the mutex, so a signal between unlock and
       park cannot be lost. Sched.suspend registers synchronously. *)
    Sched.suspend (fun w ->
        Waitq.add t.waiters w;
        Mutex.unlock m);
    Mutex.lock m

  let signal t =
    if not (Waitq.is_empty t.waiters) then Sched.wake (Waitq.take t.waiters)

  let broadcast t =
    (* Waking never runs the woken thread (it only schedules it), so
       draining in place is equivalent to the seed's snapshot-then-wake. *)
    Waitq.wake_all t.waiters
end

module Semaphore = struct
  type t = { mutable count : int; waiters : Waitq.t }

  let create n =
    assert (n >= 0);
    { count = n; waiters = Waitq.create () }

  let acquire t =
    if t.count > 0 then t.count <- t.count - 1
    else Sched.suspend (fun w -> Waitq.add t.waiters w)
  (* The released permit passes directly to the woken waiter. *)

  let release t =
    if Waitq.is_empty t.waiters then t.count <- t.count + 1
    else Sched.wake (Waitq.take t.waiters)

  let value t = t.count
end

module Ivar = struct
  type 'a t = { mutable value : 'a option; waiters : Waitq.t }

  let create () = { value = None; waiters = Waitq.create () }

  let fill t v =
    if t.value <> None then invalid_arg "Ivar.fill: already filled";
    t.value <- Some v;
    Waitq.wake_all t.waiters

  let read t =
    match t.value with
    | Some v -> v
    | None ->
      Sched.suspend (fun w -> Waitq.add t.waiters w);
      (match t.value with
      | Some v -> v
      | None -> assert false)
end

(* The result cell every hand-off below fills: a value, or the exception
   that stopped its producer, so no waiter is left parked by a failure. *)
type 'a cell = ('a, exn) result Ivar.t

let await c = match Ivar.read c with Ok v -> v | Error e -> raise e

let fork ?name f =
  let c = Ivar.create () in
  let run () =
    Ivar.fill c (match f () with () -> Ok () | exception e -> Error e)
  in
  ignore (Sched.spawn ?name run);
  c

(* Wait for every cell in list order, even past a failure, then raise
   the first failure in that order. *)
let rec await_all = function
  | [] -> ()
  | c :: cs -> (
    match Ivar.read c with
    | Ok () -> await_all cs
    | Error e ->
      List.iter (fun c -> ignore (Ivar.read c)) cs;
      raise e)

let fork_join ?name = function
  | [] -> ()
  | job :: rest as jobs ->
    if Sched.claim_inline () then begin
      let cells = List.map (fork ?name) rest in
      match Sched.run_inline job with
      | () -> await_all cells
      | exception e ->
        List.iter (fun c -> ignore (Ivar.read c)) cells;
        raise e
    end
    else await_all (List.map (fork ?name) jobs)

module Group = struct
  (* Queued items with their cells, newest first; [busy] while a leader
     runs rounds. *)
  type 'a t = { mutable queue : ('a * unit cell) list; mutable busy : bool }

  let create () = { queue = []; busy = false }
  let fill r batch = List.iter (fun (_, c) -> Ivar.fill c r) batch

  let rec rounds g round =
    match List.rev g.queue with
    | [] -> g.busy <- false
    | batch -> (
      g.queue <- [];
      match round (List.map fst batch) with
      | () ->
        fill (Ok ()) batch;
        rounds g round
      | exception e ->
        let stranded = List.rev g.queue in
        g.queue <- [];
        g.busy <- false;
        fill (Error e) (batch @ stranded))

  let submit g ~round item cell =
    g.queue <- (item, cell) :: g.queue;
    if not g.busy then begin
      g.busy <- true;
      rounds g round
    end
end
