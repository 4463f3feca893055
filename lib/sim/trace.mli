(** Host-only structured tracing over virtual time.

    When enabled, the simulator records spans (begin/end over virtual
    time), instant events, and flow links into a per-domain in-memory
    buffer, which exports as Chrome [trace_event] JSON (load it in
    [chrome://tracing] or [https://ui.perfetto.dev]). Events carry the
    current virtual timestamp, the green thread that emitted them, the
    {!Probe} they were emitted through (whose subsystem becomes the
    trace category), and optional key/value arguments.

    {b Tracing is host observability only.} No function in this module
    advances the virtual clock, charges CPU accounting, or touches any
    simulated state: with tracing on or off, serial or [-j N], every
    simulated number is byte-identical ("host work may change, simulated
    work may not"). The determinism suite enforces this.

    {b Zero cost when disabled.} Every emit function first reads one
    domain-local flag and returns. Call sites that compute arguments
    must guard with {!is_on} so the argument list is never allocated on
    the disabled path.

    The buffer is bounded ({!enable}'s [?limit]); once full, further
    events are counted in {!type-dump}[.d_dropped] and reported in the
    export metadata rather than silently discarded. The per-probe
    summary keeps accumulating past the cap, so {!summary} totals remain
    exact even for runs that overflow the buffer. *)

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

(** {2 Control (domain-local)} *)

val enable : ?limit:int -> ?verbose:bool -> unit -> unit
(** Start recording on the calling domain with an empty buffer and
    summary.
    [limit] caps the number of buffered events (default [1_048_576]);
    [verbose] additionally records high-volume events such as per-walk
    page-table instants (default [false]). *)

val disable : unit -> unit
(** Stop recording. The buffer survives until the next {!enable} so it
    can still be {!dump}ed. *)

val is_on : unit -> bool
val verbose : unit -> bool
(** [is_on () && verbose flag] — gate for high-volume events. *)

val now : unit -> int
(** Current trace timestamp (ns): the virtual clock plus a per-domain
    base that advances across [Sched.run]s so consecutive runs occupy
    disjoint intervals of the exported timeline. Returns 0 when tracing
    is off — cheap enough to call unconditionally for a span's start. *)

val new_flow : unit -> int
(** Fresh flow id (domain-local, unique within an export). Flows link
    causally-related events across threads — e.g. one μCheckpoint's
    first fault → PTE reset → device commit → durable epoch. *)

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

(** {2 Cell isolation}

    Used by [Msnap_sim.Cell]: a parallel simulation cell records into a
    private store over a private base-0 timeline, spliced back into the
    submitting experiment's store at force time in submission order, so
    the export and the summary are identical whether cells ran serially
    or on worker domains. *)

type snapshot

val buffer_limit : unit -> int
(** The current store's event cap (propagated into cell stores). *)

val cell_begin : enabled:bool -> verbose:bool -> limit:int -> snapshot
(** Install a fresh store (empty buffer and summary) on this domain,
    recording trace events iff [enabled]; returns the displaced one. *)

val cell_end : snapshot -> snapshot
(** Restore the displaced store; returns the cell's store (recording
    stopped) for a later {!cell_merge}. *)

val cell_merge : shift:int -> snapshot -> unit
(** Splice a finished cell's store into the current one: events with
    timestamps shifted by [shift] ns and flow ids rebased past the
    current store's; per-probe summary stats added exactly (even past
    the buffer cap — events that don't fit count as dropped). The
    snapshot is only read, so it may be merged into several stores (one
    per [Cell.share] handle). *)

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
}

val event_count : unit -> int

val dump : unit -> dump
(** Take the calling domain's buffer: the columns move into the dump
    without copying and the live buffer is left empty (a later
    {!enable} or further emission regrows it). Per-probe summary
    stats and the dropped count are not reset. *)

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
