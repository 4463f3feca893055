(** Latency histograms with bounded relative error.

    Log-bucketed (HDR-style) histogram over non-negative integer samples,
    used to report the average / p50 / p99 / max latencies that the paper's
    evaluation tables quote. Buckets have ~2% relative width so percentile
    error is bounded independent of the value range. *)

type t

val create : unit -> t

val add : t -> int -> unit
(** Record one sample (e.g. nanoseconds). Negative samples are clamped to 0. *)

val count : t -> int
val mean : t -> float
val max_value : t -> int

val percentile : t -> float -> int
(** [percentile t 99.0] is an upper bound of the p99 sample, accurate to the
    bucket width. Returns [0] on an empty histogram. *)
