module Minheap = Msnap_util.Minheap

(* Waker life cycle. A waker is acquired from the engine free list when
   a thread parks (Suspend) or sleeps (Delay), carries the parked
   continuation, and is released back to the free list the moment its
   continuation is resumed — so steady-state parking allocates nothing.
   Under Msnap_util.Slice.debug_checks the free list is disabled and
   released wakers are poisoned instead: waking one raises {!Violation},
   turning use-after-resume bugs into hard failures. *)
let st_free = 0 (* on the free list *)
let st_parked = 1 (* suspended; in the parked dlist; wake will fire it *)
let st_timer = 2 (* carrying a Delay continuation; not wakeable *)
let st_fired = 3 (* woken; resume scheduled but not yet run *)
let st_poisoned = 4 (* released under debug_checks; any wake is a bug *)
let st_nil = 5 (* sentinels *)

type thread = {
  id : int;
  tname : string;
  (* Virtual spawn time, kept only so tracing can emit a whole-lifetime
     span at thread exit. Deterministic state, host-only consumer. *)
  spawned : int;
  mutable finished : bool;
  (* Intrusive LIFO stack of joiner wakers linked through [w_qnext],
     [nil_waker]-terminated — same wake order as the seed's cons list. *)
  mutable joiners : waker;
  (* Current CPU-accounting bucket as a dense Probe.Bucket id, indexing
     the engine's flat [buckets] array: with_bucket enter/exit and the
     cpu hot path are a plain int store, no hash lookups. *)
  mutable acct : int;
}

and waker = {
  mutable w_thread : thread;
  mutable w_state : int;
  (* The parked continuation lives in the waker itself, making [wake]
     O(1); [dummy_k] while the waker is free. *)
  mutable w_k : (unit, unit) Effect.Deep.continuation;
  w_engine : engine;
  (* Preallocated resume closure, pushed on the run queue at wake time.
     It reads [w_thread]/[w_k] when it runs, so one closure serves every
     reincarnation of this waker. *)
  w_resume : unit -> unit;
  (* Doubly-linked parked list (engine sentinel [parked]) while parked,
     for O(1) unlink at wake and deadlock reporting; [w_next] doubles as
     the free-list link while free. *)
  mutable w_prev : waker;
  mutable w_next : waker;
  (* Singly-linked FIFO link for Waitq (sync primitives) and the
     joiners stack. *)
  mutable w_qnext : waker;
}

and engine = {
  mutable clock : int;
  runq : (unit -> unit) Minheap.t;
  mutable live : int;
  mutable cur : thread; (* [t_none] when the scheduler itself runs *)
  t_none : thread;
  mutable next_tid : int;
  mutable failure : exn option;
  (* Per-bucket CPU ns, indexed by Probe.Bucket.id. *)
  buckets : int array;
  (* Sentinel of the parked-waker dlist, most recently parked first. *)
  parked : waker;
  mutable free_wakers : waker; (* free list, [nil_waker]-terminated *)
  (* Host-only statistics, flushed to the domain totals at finalize. *)
  mutable ev : int; (* run-queue pops *)
  mutable walloc : int; (* wakers freshly allocated *)
  mutable wreuse : int; (* wakers reused from the free list *)
}

type tid = thread

exception Deadlock of string
exception Violation of string

type _ Effect.t +=
  | Delay : int -> unit Effect.t
  | Suspend : (waker -> unit) -> unit Effect.t

let dummy_k : (unit, unit) Effect.Deep.continuation = Obj.magic 0

(* Global nil sentinel terminating free lists, wait queues and joiner
   stacks. Shared across engines and domains, so its fields are NEVER
   written — every list operation checks for it by physical equality
   before touching links. *)
let nil_runq : (unit -> unit) Minheap.t = Minheap.create ~initial:2 ()

let rec nil_thread =
  { id = -1; tname = "scheduler"; spawned = 0; finished = true;
    joiners = nil_waker; acct = 0 }

and nil_engine =
  { clock = 0; runq = nil_runq; live = 0; cur = nil_thread;
    t_none = nil_thread; next_tid = 0; failure = None; buckets = [||];
    parked = nil_waker; free_wakers = nil_waker; ev = 0; walloc = 0;
    wreuse = 0 }

and nil_waker =
  { w_thread = nil_thread; w_state = 5 (* st_nil *); w_k = dummy_k;
    w_engine = nil_engine; w_resume = ignore; w_prev = nil_waker;
    w_next = nil_waker; w_qnext = nil_waker }

(* One engine slot per domain: each domain can host an independent
   Sched.run, which is what lets the bench harness fan experiments out
   over a domain pool. *)
let engine_key : engine option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let engine_slot () = Domain.DLS.get engine_key

(* Trace-timeline base: accumulated final clocks of completed runs on
   this domain, so consecutive Sched.runs occupy disjoint intervals of
   the exported trace instead of overlapping at t=0. Host-only. *)
let trace_base_key : int ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref 0)

(* Cumulative host-side scheduler statistics per domain (events
   executed, waker allocation/reuse). Pure host observability for
   BENCH_sim.json — deliberately not Metrics counters, so they can never
   leak into determinism digests. *)
type host_stats = {
  mutable hs_events : int;
  mutable hs_walloc : int;
  mutable hs_wreuse : int;
}

let host_stats_key : host_stats Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      { hs_events = 0; hs_walloc = 0; hs_wreuse = 0 })

let host_counters () =
  let s = Domain.DLS.get host_stats_key in
  (s.hs_events, s.hs_walloc, s.hs_wreuse)

let () =
  Trace.set_time_source (fun () ->
      let base = !(Domain.DLS.get trace_base_key) in
      match !(engine_slot ()) with Some e -> base + e.clock | None -> base);
  (* [cur] is [t_none] (id -1, "scheduler") between threads, so the
     sources need no option branch. *)
  Trace.set_thread_source
    ~tid:(fun () ->
      match !(engine_slot ()) with Some e -> e.cur.id | None -> -1)
    ~tname:(fun () ->
      match !(engine_slot ()) with Some e -> e.cur.tname | None -> "host")

let engine () =
  match !(engine_slot ()) with
  | Some e -> e
  | None -> invalid_arg "Sched: not inside Sched.run"

let now () = (engine ()).clock

let self () =
  let e = engine () in
  if e.cur == e.t_none then invalid_arg "Sched.self: no current thread";
  e.cur

let tid_int t = t.id
let name t = t.tname

let schedule e ~at action = Minheap.push e.runq ~prio:at action

(* --- waker pool --- *)

let park_link e w =
  let s = e.parked in
  let n = s.w_next in
  w.w_prev <- s;
  w.w_next <- n;
  n.w_prev <- w;
  s.w_next <- w

let park_unlink w =
  w.w_prev.w_next <- w.w_next;
  w.w_next.w_prev <- w.w_prev;
  w.w_prev <- nil_waker;
  w.w_next <- nil_waker

let release_waker e w =
  w.w_k <- dummy_k;
  w.w_thread <- e.t_none;
  if !Msnap_util.Slice.debug_checks then w.w_state <- st_poisoned
  else begin
    w.w_state <- st_free;
    w.w_next <- e.free_wakers;
    e.free_wakers <- w
  end

(* Body of every waker's preallocated [w_resume] closure: recycle the
   waker first (the resumed thread may re-park through it immediately),
   then hand the CPU to the parked thread. *)
let run_waker w =
  let e = w.w_engine in
  let t = w.w_thread in
  let k = w.w_k in
  release_waker e w;
  e.cur <- t;
  Effect.Deep.continue k ()

let fresh_waker e t =
  e.walloc <- e.walloc + 1;
  let rec w =
    { w_thread = t; w_state = st_free; w_k = dummy_k; w_engine = e;
      w_resume = (fun () -> run_waker w); w_prev = nil_waker;
      w_next = nil_waker; w_qnext = nil_waker }
  in
  w

let acquire_waker e t =
  let w = e.free_wakers in
  if w == nil_waker then fresh_waker e t
  else begin
    e.free_wakers <- w.w_next;
    w.w_next <- nil_waker;
    w.w_thread <- t;
    e.wreuse <- e.wreuse + 1;
    w
  end

let wake w =
  if w.w_state = st_parked then begin
    w.w_state <- st_fired;
    let e = w.w_engine in
    park_unlink w;
    if Trace.verbose () then
      Trace.instant Probe.sched_wake
        ~args:[ ("tid", Trace.I w.w_thread.id); ("thread", Trace.S w.w_thread.tname) ];
    schedule e ~at:e.clock w.w_resume
  end
  else if w.w_state <> st_fired && !Msnap_util.Slice.debug_checks then
    (* Waking after the thread already resumed would (silently) do
       nothing in release builds because the waker has moved on; under
       debug_checks the released waker was poisoned so the stale wake is
       caught here instead. *)
    raise
      (Violation
         (Printf.sprintf "Sched.wake: stale waker (state %d): thread already resumed"
            w.w_state))

(* --- wait queues (intrusive, allocation-free) --- *)

module Waitq = struct
  type nonrec t = { mutable head : waker; mutable tail : waker }

  let create () = { head = nil_waker; tail = nil_waker }
  let is_empty q = q.head == nil_waker

  let add q w =
    w.w_qnext <- nil_waker;
    if q.head == nil_waker then begin
      q.head <- w;
      q.tail <- w
    end
    else begin
      q.tail.w_qnext <- w;
      q.tail <- w
    end

  let take q =
    let w = q.head in
    if w == nil_waker then invalid_arg "Sched.Waitq.take: empty";
    let n = w.w_qnext in
    q.head <- n;
    if n == nil_waker then q.tail <- nil_waker;
    w.w_qnext <- nil_waker;
    w

  let wake_all q =
    while not (is_empty q) do
      wake (take q)
    done
end

(* Run [body] as a coroutine belonging to [t]. Each effect performed by the
   body parks its continuation in a pooled waker and unwinds to the
   scheduler loop. *)
let start_thread e t body =
  let open Effect.Deep in
  let handler =
    {
      retc =
        (fun () ->
          t.finished <- true;
          e.live <- e.live - 1;
          if Trace.is_on () then
            Trace.complete Probe.sched_thread ~dur:(e.clock - t.spawned)
              ~args:[ ("thread", Trace.S t.tname) ];
          let rec wake_joiners w =
            if w != nil_waker then begin
              let next = w.w_qnext in
              w.w_qnext <- nil_waker;
              wake w;
              wake_joiners next
            end
          in
          let js = t.joiners in
          t.joiners <- nil_waker;
          wake_joiners js);
      exnc =
        (fun exn ->
          t.finished <- true;
          e.live <- e.live - 1;
          if e.failure = None then e.failure <- Some exn);
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Delay ns ->
            Some
              (fun (k : (a, unit) continuation) ->
                let w = acquire_waker e t in
                w.w_state <- st_timer;
                w.w_k <- k;
                schedule e ~at:(e.clock + ns) w.w_resume)
          | Suspend f ->
            Some
              (fun (k : (a, unit) continuation) ->
                if Trace.verbose () then
                  Trace.instant Probe.sched_block
                    ~args:[ ("thread", Trace.S t.tname) ];
                let w = acquire_waker e t in
                w.w_state <- st_parked;
                w.w_k <- k;
                park_link e w;
                f w)
          | _ -> None);
    }
  in
  match_with body () handler

let suspend f = Effect.perform (Suspend f)

(* Fast path: when the run queue holds nothing scheduled at or before
   the target time, performing the Delay effect would park our
   continuation and immediately pop it back (the tie-break seq ordering
   guarantees we run before anything later queued at the same instant),
   so advancing the clock inline is semantically identical and skips the
   continuation capture plus a push and a pop. [Minheap.min_prio] is an
   O(1) read of the heap's root. *)
let advance e ns =
  let target = e.clock + ns in
  let p = Minheap.min_prio e.runq in
  if p >= 0 && p <= target then Effect.perform (Delay ns)
  else e.clock <- target

let delay ns = if ns > 0 then advance (engine ()) ns
let yield () = Effect.perform (Delay 0)

let spawn ?(name = "thread") body =
  let e = engine () in
  let t =
    {
      id = e.next_tid;
      tname = name;
      spawned = e.clock;
      finished = false;
      joiners = nil_waker;
      acct = 0 (* Probe.Bucket.user *);
    }
  in
  e.next_tid <- e.next_tid + 1;
  e.live <- e.live + 1;
  if Trace.verbose () then
    Trace.instant Probe.sched_spawn
      ~args:[ ("tid", Trace.I t.id); ("thread", Trace.S name) ];
  schedule e ~at:e.clock (fun () ->
      e.cur <- t;
      start_thread e t body);
  t

let join target =
  if not target.finished then
    suspend (fun w ->
        w.w_qnext <- target.joiners;
        target.joiners <- w)

let bucket () = Probe.Bucket.name (Probe.Bucket.of_id (self ()).acct)

let cpu ns =
  if ns > 0 then begin
    let e = engine () in
    let t = e.cur in
    if t == e.t_none then invalid_arg "Sched.cpu: no current thread";
    let b = e.buckets in
    let i = t.acct in
    Array.unsafe_set b i (Array.unsafe_get b i + ns);
    advance e ns
  end

let with_bucket b f =
  let t = self () in
  let saved = t.acct in
  t.acct <- Probe.Bucket.id b;
  Fun.protect ~finally:(fun () -> t.acct <- saved) f

let account_report () =
  let e = engine () in
  let acc = ref [] in
  for i = Probe.Bucket.count - 1 downto 0 do
    let v = e.buckets.(i) in
    if v <> 0 then acc := (Probe.Bucket.name (Probe.Bucket.of_id i), v) :: !acc
  done;
  List.sort (fun (a, _) (b, _) -> String.compare a b) !acc

let account_total () =
  List.fold_left (fun acc (_, v) -> acc + v) 0 (account_report ())

let running () = !(engine_slot ()) <> None
let trace_base () = !(Domain.DLS.get trace_base_key)
let set_trace_base v = Domain.DLS.get trace_base_key := v

let run main =
  let slot = engine_slot () in
  if !slot <> None then invalid_arg "Sched.run: nested run";
  let t_none =
    { id = -1; tname = "scheduler"; spawned = 0; finished = true;
      joiners = nil_waker; acct = 0 }
  in
  let runq = Minheap.create () in
  let buckets = Array.make Probe.Bucket.count 0 in
  let rec e =
    { clock = 0; runq; live = 0; cur = t_none; t_none; next_tid = 0;
      failure = None; buckets; parked = psent; free_wakers = nil_waker;
      ev = 0; walloc = 0; wreuse = 0 }
  and psent =
    { w_thread = t_none; w_state = st_nil; w_k = dummy_k; w_engine = e;
      w_resume = ignore; w_prev = psent; w_next = psent;
      w_qnext = nil_waker }
  in
  slot := Some e;
  let result = ref None in
  ignore (spawn ~name:"main" (fun () -> result := Some (main ())));
  let finalize () =
    (* Advance the host-only trace timeline past this run (plus a gap so
       back-to-back runs are visually distinct in the export). *)
    let base = Domain.DLS.get trace_base_key in
    base := !base + e.clock + 1_000;
    let s = Domain.DLS.get host_stats_key in
    s.hs_events <- s.hs_events + e.ev;
    s.hs_walloc <- s.hs_walloc + e.walloc;
    s.hs_wreuse <- s.hs_wreuse + e.wreuse;
    slot := None
  in
  let deadlock () =
    (* Walk the parked dlist: most recently parked first, same order as
       the seed's cons list. *)
    let buf = Buffer.create 64 in
    let rec go w first =
      if w != psent then begin
        if not first then Buffer.add_string buf ", ";
        Buffer.add_string buf w.w_thread.tname;
        go w.w_next false
      end
    in
    go psent.w_next true;
    let live = e.live in
    let names = Buffer.contents buf in
    finalize ();
    raise
      (Deadlock
         (Printf.sprintf "%d thread(s) blocked forever: %s" live names))
  in
  let rec loop () =
    if e.failure <> None then ()
    else begin
      let at = Minheap.min_prio e.runq in
      if at < 0 then begin if e.live > 0 then deadlock () end
      else begin
        if at > e.clock then e.clock <- at;
        e.ev <- e.ev + 1;
        (Minheap.pop_min e.runq) ();
        loop ()
      end
    end
  in
  (try loop ()
   with exn ->
     finalize ();
     raise exn);
  let failure = e.failure in
  finalize ();
  match failure with
  | Some exn -> raise exn
  | None -> (
    match !result with
    | Some v -> v
    | None -> failwith "Sched.run: main thread did not complete")
