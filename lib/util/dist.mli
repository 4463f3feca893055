(** Random variate distributions used by the workload generators.

    MixGraph draws keys from a uniform or a generalized Pareto
    distribution; TATP and dbbench draw uniform keys. All samplers draw
    from a caller-supplied {!Rng.t}. *)

type t
(** A sampler over the integer domain [\[0, n)]. *)

val uniform : int -> t
(** Every key equally likely. *)

val pareto : ?shape:float -> ?scale:float -> int -> t
(** Generalized Pareto over [\[0, n)], matching the key-distance model used
    by Facebook's MixGraph characterization. Samples are clamped to the
    domain. Default [shape = 0.2], [scale = n/10]. *)

val sample : t -> Rng.t -> int
(** Draw one key. *)
