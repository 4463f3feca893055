(* A process-wide fork/join pool over OCaml 5 domains.

   One pool for the whole process: the bench runner's `-j N` budget
   covers both experiment-level tasks and the fine-grained simulation
   cells they submit, so N is the total number of domains doing
   simulation work, never N experiments times M cells.

   Design notes:

   - Tasks are *claimed*, not dequeued: a task's thunk is taken under
     the pool lock, and queue entries whose thunk is already gone are
     dropped lazily when a scan meets them. This makes "run my own
     task inline at await" race-free — whoever takes the thunk runs
     it, everyone else sees an empty slot.

   - Each submitter has a deque (keyed by a domain-local lane id; all
     non-worker domains share lane 0). Owners pop newest-first,
     thieves steal oldest-first, so cross-domain execution starts in
     submission order while a domain draining its own backlog stays
     cache-hot.

   - [await] never blocks while eligible work exists: it first claims
     its own task, then helps with other queued tasks. A domain that
     is already inside a task only helps [Light] tasks — an experiment
     must never nest another whole experiment (and its host accounting
     frame) in the middle of its own measurement window. Light tasks
     are required to be self-contained with respect to domain-local
     state; the simulation cell layer guarantees this by running the
     cell body under its own trace scope and output buffer, while
     metrics and end-of-run teardown belong to each [Sched.run].

   - Zero workers is a valid configuration: tasks then run inline at
     [await], preserving serial execution order exactly. *)

type cls = Light | Heavy

type packed = Job : 'a cell -> packed

and 'a cell = {
  mutable thunk : (unit -> 'a) option; (* Some until claimed *)
  mutable result : ('a, exn * Printexc.raw_backtrace) result option;
  j_cls : cls;
}

type 'a task = 'a cell

let lock = Mutex.create ()
let cond = Condition.create ()

(* lanes.(0) = every non-worker domain; lanes.(i) = worker i. Deques
   are newest-first lists. *)
let lanes : packed list ref array ref = ref [| ref [] |]
let lane_key : int Domain.DLS.key = Domain.DLS.new_key (fun () -> 0)

(* Is this domain currently executing a pool task? Selects which
   classes [await] may help with. *)
let in_task_key : bool ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref false)

let workers : unit Domain.t list ref = ref []
let n_workers = ref 0
let stopping = ref false
let init_hooks : (unit -> unit) list ref = ref []

let worker_count () =
  Mutex.lock lock;
  let n = !n_workers in
  Mutex.unlock lock;
  n

let on_worker_init f = init_hooks := f :: !init_hooks

(* Remove the first claimable entry of [l] (skipping, and dropping,
   entries whose thunk is already claimed). Returns it plus the
   remaining list. *)
let rec extract ~only_light l =
  match l with
  | [] -> (None, [])
  | (Job c as j) :: rest ->
    if c.thunk = None then extract ~only_light rest
    else if (not only_light) || c.j_cls = Light then (Some j, rest)
    else
      let found, rest' = extract ~only_light rest in
      (found, j :: rest')

(* Newest-first (the owner's end). *)
let take_front ~only_light d =
  let found, rest = extract ~only_light !d in
  d := rest;
  found

(* Oldest-first (the stealing end). *)
let take_back ~only_light d =
  let found, rev_rest = extract ~only_light (List.rev !d) in
  d := List.rev rev_rest;
  found

(* Claim a runnable thunk; caller must hold [lock]. Returns a closure
   to run *outside* the lock. *)
let find_work ~only_light ~lane =
  let ls = !lanes in
  let n = Array.length ls in
  let found =
    match
      if lane < n then take_front ~only_light ls.(lane) else None
    with
    | Some _ as s -> s
    | None ->
      let rec scan i =
        if i >= n then None
        else if i = lane then scan (i + 1)
        else
          match take_back ~only_light ls.(i) with
          | Some _ as s -> s
          | None -> scan (i + 1)
      in
      scan 0
  in
  match found with
  | None -> None
  | Some (Job c) ->
    let f = Option.get c.thunk in
    c.thunk <- None;
    Some
      (fun () ->
        let in_task = Domain.DLS.get in_task_key in
        let saved = !in_task in
        in_task := true;
        let r =
          match f () with
          | v -> Ok v
          | exception e -> Error (e, Printexc.get_raw_backtrace ())
        in
        in_task := saved;
        Mutex.lock lock;
        c.result <- Some r;
        Condition.broadcast cond;
        Mutex.unlock lock)

let worker_main lane () =
  Domain.DLS.set lane_key lane;
  List.iter (fun f -> f ()) (List.rev !init_hooks);
  Mutex.lock lock;
  let rec loop () =
    match find_work ~only_light:false ~lane with
    | Some run ->
      Mutex.unlock lock;
      run ();
      Mutex.lock lock;
      loop ()
    | None ->
      (* Drain everything before honoring shutdown: no lost tasks. *)
      if !stopping then ()
      else begin
        Condition.wait cond lock;
        loop ()
      end
  in
  loop ();
  Mutex.unlock lock

let ensure_workers n =
  Mutex.lock lock;
  let have = !n_workers in
  if n > have then begin
    lanes :=
      Array.init (n + 1) (fun i ->
          if i < Array.length !lanes then !lanes.(i) else ref []);
    for i = have + 1 to n do
      workers := Domain.spawn (worker_main i) :: !workers;
      n_workers := i
    done
  end;
  Mutex.unlock lock

let submit ?(cls = Light) f =
  let c = { thunk = Some f; result = None; j_cls = cls } in
  Mutex.lock lock;
  let lane = Domain.DLS.get lane_key in
  let ls = !lanes in
  let d = if lane < Array.length ls then ls.(lane) else ls.(0) in
  d := Job c :: !d;
  Condition.broadcast cond;
  Mutex.unlock lock;
  c

let await c =
  Mutex.lock lock;
  let lane = Domain.DLS.get lane_key in
  let rec wait () =
    match c.result with
    | Some r ->
      Mutex.unlock lock;
      (match r with
      | Ok v -> v
      | Error (e, bt) -> Printexc.raise_with_backtrace e bt)
    | None ->
      if c.thunk <> None then begin
        (* Not started yet: run it inline, whatever its class — it is
           ours, so it cannot nest a foreign experiment. *)
        let f = Option.get c.thunk in
        c.thunk <- None;
        Mutex.unlock lock;
        let in_task = Domain.DLS.get in_task_key in
        let saved = !in_task in
        in_task := true;
        let r =
          match f () with
          | v -> Ok v
          | exception e -> Error (e, Printexc.get_raw_backtrace ())
        in
        in_task := saved;
        Mutex.lock lock;
        c.result <- Some r;
        Condition.broadcast cond;
        wait ()
      end
      else begin
        (* In flight elsewhere: help with queued work instead of
           spinning. Inside a task, help only Light (cell) tasks. *)
        let only_light = !(Domain.DLS.get in_task_key) in
        match find_work ~only_light ~lane with
        | Some run ->
          Mutex.unlock lock;
          run ();
          Mutex.lock lock;
          wait ()
        | None ->
          Condition.wait cond lock;
          wait ()
      end
  in
  wait ()

let shutdown () =
  Mutex.lock lock;
  stopping := true;
  Condition.broadcast cond;
  let ds = !workers in
  workers := [];
  Mutex.unlock lock;
  List.iter Domain.join ds;
  Mutex.lock lock;
  stopping := false;
  n_workers := 0;
  lanes := [| (!lanes).(0) |];
  Mutex.unlock lock
