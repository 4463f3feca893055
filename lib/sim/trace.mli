(** Host-only structured tracing over virtual time.

    Recording is a scope: {!collect} runs a callback and returns, with
    its value, everything the simulator recorded inside it (spans
    (begin/end over virtual time), instant events, and flow links) as a
    {!type-dump}, which exports as Chrome [trace_event] JSON (load it in
    [chrome://tracing] or [https://ui.perfetto.dev]). Events carry the
    scope's timestamp, the green thread that emitted them, the {!Probe}
    they were emitted through (whose subsystem becomes the trace
    category), and optional key/value arguments.

    {b Tracing is host observability only.} No function in this module
    advances the virtual clock, charges CPU accounting, or touches any
    simulated state: with tracing on or off, serial or [-j N], every
    simulated number is byte-identical ("host work may change, simulated
    work may not"). The determinism suite enforces this.

    {b Zero cost when disabled.} Every emit function first reads the
    calling domain's innermost scope (one domain-local read) and returns
    unless it records. Call sites that compute arguments must guard with
    {!is_on} so the argument list is never allocated on the disabled
    path.

    The buffer is bounded ({!collect}'s [?limit]); once full, further
    events are counted in {!type-dump}[.d_dropped] and reported in the
    export metadata rather than silently discarded. The per-probe
    summary keeps accumulating past the cap, so {!type-dump}[.d_summary]
    totals remain exact even for runs that overflow the buffer. *)

type arg = I of int | S of string
type args = (string * arg) list
type flow_phase = Flow_start | Flow_step | Flow_end

(** {2 Time and thread sources}

    [Trace] sits below [Sched] in the module graph, so the scheduler
    injects its clock and current-thread accessors at module-init time.
    Outside a [Sched.run] the sources report time 0 and thread
    [(-1, "host")]. *)

val set_time_source : (unit -> int) -> unit

val set_thread_source : tid:(unit -> int) -> tname:(unit -> string) -> unit
(** The thread source is split: [tid] runs on every stored event (and
    must be allocation-free — it returns an unboxed int); [tname] runs
    only the first time a given tid stores an event. *)

val advance : int -> unit
(** Called by [Sched] as a run finishes: moves the recording scope's
    timeline past the run by the given ns, so consecutive runs in one
    scope occupy disjoint intervals of its export. A non-recording
    scope keeps no timeline. *)

val is_on : unit -> bool
(** Does the calling domain's innermost scope record? *)

val verbose : unit -> bool
(** Does it also record high-volume events such as per-walk page-table
    instants? Implies {!is_on}. *)

val new_flow : unit -> int
(** Fresh flow id, unique within the scope (the first is 1). Flows link
    causally-related events across threads — e.g. one μCheckpoint's
    first fault → PTE reset → device commit → durable epoch. Call it
    only under {!is_on}. *)

(** {2 Emitting}

    All no-ops when disabled. *)

val instant :
  ?args:args -> ?argi:string * int -> ?flow:int * flow_phase -> Probe.t -> unit
(** A zero-duration event at the current time. [argi] is the flat fast
    path for the common single-int argument (e.g. [("bytes", n)]): it
    lands in two unboxed columns instead of allocating an [args] list
    per event, and exports identically to [~args:[(k, I v)]]. Pass a
    shared literal key. *)

val complete :
  ?args:args ->
  ?argi:string * int ->
  ?flow:int * flow_phase ->
  Probe.t ->
  dur:int ->
  unit
(** A span of [dur] ns ending now. Call sites measure with virtual-time
    deltas ([Sched.now () - t0]) and report the duration here; the
    span's start is reconstructed against the trace timeline. *)

val with_span :
  ?args:args ->
  ?argi:string * int ->
  ?flow:int * flow_phase ->
  Probe.t ->
  (unit -> 'a) ->
  'a
(** Run the callback inside a span. The span is recorded even if the
    callback raises (the exception is re-raised). When disabled this is
    exactly [f ()]. *)

(** {2 Collecting}

    The live buffer is structs-of-arrays (one int column per event
    field) so the emit path allocates nothing; a {!type-dump} snapshots
    those columns. {!events} materializes the conventional
    array-of-records view on demand — cold-path only. *)

type event = {
  ev_probe : Probe.t;
  ev_ts : int;           (** start, ns on the trace timeline *)
  ev_dur : int;          (** span duration; [-1] for instants *)
  ev_tid : int;
  ev_tname : string;
  ev_args : args;
  ev_flow : (int * flow_phase) option;
}

type dump = {
  d_count : int;              (** events kept in the buffer *)
  d_dropped : int;            (** events past the buffer cap *)
  d_summary : (string * string * int * int * int) list;
      (** (subsystem, name, count, total span ns, max span ns),
          sorted by subsystem then name; exact even past the cap *)
  d_probe : int array;        (** {!Probe.id} per event, in emission order *)
  d_ts : int array;
  d_dur : int array;
  d_tid : int array;
  d_args : args array;
  d_ak : string array;        (** single-int-arg fast path: key, [""] = none *)
  d_av : int array;           (** single-int-arg fast path: value *)
  d_flow : int array;         (** packed: [0] none, else [id*4 + phase] *)
  d_tnames : (int, string) Hashtbl.t;  (** first-seen name per tid *)
  d_span : int;
      (** ns of timeline the scope consumed: each of its runs' final
          clock plus a 1 µs gap, and every spliced dump's span *)
  d_flows : int;              (** flow ids the scope issued *)
}

val collect : ?limit:int -> ?verbose:bool -> (unit -> 'a) -> 'a * dump
(** [collect f] runs [f] under a fresh recording scope on the calling
    domain and returns its value with what the scope recorded. Every
    [Sched.run] inside [f] records straight into the scope's buffer;
    the scope's timeline starts at 0 and its flow ids at 1, whatever
    the domain ran before. Scopes nest: the enclosing one is restored
    on return and sees none of the inner one's events. If [f] raises,
    its trace is discarded and the exception re-raised.
    [limit] caps the number of buffered events (default [1_048_576]);
    [verbose] additionally records high-volume events (default
    [false]). *)

val append : dump -> unit
(** Splice a dump into the calling domain's scope, as if its runs had
    happened here: timestamps shifted to the scope's current timeline
    position, which then advances by [d_span]; flow ids rebased past
    the scope's; per-probe summary stats added exactly (events past the
    scope's cap count as dropped). The dump is only read, so it may be
    appended to several scopes. A no-op in a non-recording scope. *)

type config
(** A scope's recording settings: on or off, verbosity, buffer cap. *)

val config : unit -> config
(** The settings of the calling domain's innermost scope. *)

val collect_as : config -> (unit -> 'a) -> 'a * dump
(** {!collect} with captured settings, for work that runs elsewhere on
    a scope's behalf ([Msnap_sim.Cell]): under a non-recording config,
    [f] runs under an explicit non-recording scope (so no enclosing
    scope catches its events) and the dump is empty. *)

val events : dump -> event array
(** Materialize the record-per-event view of a dump's columns. *)

val export_json : out_channel -> dump -> unit
(** Write Chrome [trace_event] JSON: complete ("X") and instant ("i")
    events, flow ("s"/"t"/"f") links, and thread-name metadata.
    Timestamps are microseconds with ns precision kept in the
    fraction. *)

val render_summary : dump -> string
(** Human-readable per-subsystem table: span counts, total and max
    virtual-time per probe — the numbers that reconcile against
    [Sched.account_report] buckets. *)
