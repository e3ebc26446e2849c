(** A single interaction: a quantity transferred at an instant.

    Interaction networks (Definition 1 of the paper) annotate every
    directed edge [(v, u)] with a time-ordered sequence of interactions
    [(t_i, q_i)]: at time [t_i], vertex [v] sends quantity [q_i] to
    vertex [u]. *)

type t = private { time : float; qty : float }
(** Timestamps are finite non-negative reals (the real datasets use
    epoch seconds); quantities are non-negative reals.  [qty] (and
    [time]) may be infinite only on interactions built with
    {!unchecked} — synthetic source/sink edges use infinite quantity
    (Section 4 of the paper). *)

val make : time:float -> qty:float -> t
(** [make ~time ~qty] validates and builds a data interaction, with
    exactly the domain the CSV parser of {!Io} accepts: both
    fields finite and non-negative.
    @raise Invalid_argument if [time] is NaN, infinite or negative, or
    [qty] is NaN, infinite or negative. *)

val unchecked : time:float -> qty:float -> t
(** [unchecked ~time ~qty] builds a synthetic interaction: [time] may
    be any non-NaN real (including [±infinity]) and [qty] any
    non-negative value (including [infinity]).  Used for the
    super-source/super-sink edges of {!Endpoints} and for greedy
    arrival sequences, which legitimately carry infinite quantity —
    never for data read from disk.
    @raise Invalid_argument if either field is NaN or [qty] is
    negative. *)

val time : t -> float
val qty : t -> float

val compare : t -> t -> int
(** Orders by time, then by quantity; a total order compatible with the
    temporal scan of the greedy algorithm. *)

val equal : t -> t -> bool

val pp : Format.formatter -> t -> unit
(** Prints as [(t,q)], matching the paper's notation. *)

val pp_list : Format.formatter -> t list -> unit

val of_pair : float * float -> t
(** [of_pair (t, q)] is [make ~time:t ~qty:q] — convenient for writing
    the paper's worked examples as literal lists. *)

val of_pairs : (float * float) list -> t list
(** Maps {!of_pair} and sorts by time. *)

val sort : t list -> t list
(** Stable sort by {!compare}. *)

val is_sorted : t list -> bool

val total_qty : t list -> float
(** Sum of quantities (the cut capacity contribution of an edge). *)
