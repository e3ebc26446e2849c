(** Plain-text table rendering for the benchmark harness, in the shape
    of the paper's tables. *)

type align = Left | Right

val render :
  ?title:string -> ?align:align list -> header:string list -> string list list -> string
(** [render ~header rows] lays out a boxed ASCII table.  [align] gives
    per-column alignment (default: first column left, rest right);
    missing cells render empty; cell widths count UTF-8 code points.
    The result ends with a newline. *)

val print :
  ?title:string -> ?align:align list -> header:string list -> string list list -> unit
(** {!render} to stdout. *)

val fmt_ms : float -> string
(** Human-friendly rendering of a duration in milliseconds: switches to
    µs below 0.1 ms and to seconds above 10\,000 ms, mirroring the
    units used in the paper's tables. *)

val fmt_count : float -> string
(** Render a count with K/M/G/T suffixes (e.g. [22.3G] instances). *)

val fmt_flow : float -> string
(** Render a flow value compactly (3 significant decimals, suffixes for
    large magnitudes). *)
