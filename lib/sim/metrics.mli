(** Counters and latency histograms for experiment reporting, keyed by
    typed {!Probe}s.

    The case studies instrument their persistence calls
    ([Probe.db_fsync], [Probe.db_write], [Probe.db_memsnap], ...)
    through this registry; the benchmark harness reads the totals to
    regenerate the paper's syscall-count tables (Tables 7 and 9).

    This module owns no storage: it is a typed view over the metric
    columns of the running [Sched] engine, indexed by {!Probe.id}.
    Like [Sched.account_report], the figures belong to one [Sched.run]:
    every run starts with every counter at 0 and no histogram, and a
    reader reads them inside the run that recorded them (return them
    as a value to keep them). Outside a run, every entry point raises
    [Invalid_argument]. Each takes a typed {!Probe}; use {!Probe.make} for ad-hoc names (tests, one-off
    experiments). *)

val incr : ?by:int -> Probe.t -> unit
(** Bump a counter. *)

val count : Probe.t -> int
(** Current value (0 if never bumped). *)

val add_sample : Probe.t -> int -> unit
(** Record one latency sample (ns); also bumps the implicit op counter
    of the same name. *)

val hist : Probe.t -> Msnap_util.Histogram.t option

val mean_ns : Probe.t -> float
(** Mean of the samples recorded under a probe (0 if none). *)

val samples : Probe.t -> int

val counters : unit -> (string * int) list
(** Every counter that was bumped, as (wire name, total), sorted by
    name. A counter whose total is 0 is not listed: no caller bumps by
    0 or by a negative amount. No two probes share a wire name, so each
    name appears once. *)

val timed : Probe.t -> (unit -> 'a) -> 'a
(** Run the callback, recording its elapsed virtual time as a sample.
    When tracing is enabled, also emits the section as a trace span in
    the probe's subsystem category. *)

val timed_begin : unit -> int
val timed_end : Probe.t -> int -> unit
(** Closure-free bracket form of {!timed} for hot call sites:
    [let t0 = timed_begin () in ...; timed_end probe t0]. Not recorded
    if the section raises (same as {!timed}). *)

