(** ASCII table rendering for the benchmark harness.

    Every paper table/figure reproduction prints through this module so the
    bench output has one consistent look. Columns are sized to fit their
    widest cell; numeric cells are right-aligned. *)

type t

val create : title:string -> headers:string list -> t

val row : t -> string list -> unit
(** Append a row. Rows shorter than the header list are padded. *)

val rule : t -> unit
(** Append a horizontal separator at this position. *)

val note : t -> string -> unit
(** Append a free-form footnote shown under the table. *)

val render : t -> string

val print : t -> unit
(** [render] to stdout followed by a blank line. *)

(** {2 Cell formatting helpers} *)

val us : int -> string
(** Render nanoseconds as microseconds: ["51.4"]. *)

val us_short : int -> string
(** Render nanoseconds adaptively like the paper: ["156"], ["1.9K"] (µs). *)

val pct : float -> string
(** ["29.15%"] style. *)

val kcount : int -> string
(** Count in thousands: ["63.1 K"]. *)
