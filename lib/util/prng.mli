(** Deterministic pseudo-random number generation.

    All experiments in this repository are seeded so that dataset
    generation, subgraph extraction and benchmarks are reproducible from
    run to run.  The generator is SplitMix64 (Steele, Lea & Flood 2014):
    a tiny, fast, statistically solid 64-bit generator whose state is a
    single integer, which makes [split] (deriving an independent stream)
    trivial and principled. *)

type t
(** Mutable generator state. *)

val create : seed:int -> t
(** [create ~seed] returns a fresh generator.  Equal seeds produce equal
    streams. *)

val copy : t -> t
(** [copy t] is an independent generator that will replay [t]'s future
    stream. *)

val split : t -> t
(** [split t] advances [t] and returns a new generator whose stream is
    statistically independent of [t]'s remaining stream.  Used to give
    each dataset / experiment its own stream so adding draws to one
    experiment does not perturb another. *)

val int64 : t -> int64
(** Next raw 64-bit output. *)

val bits : t -> int
(** Next non-negative 62-bit integer. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)].  @raise Invalid_argument
    if [bound <= 0]. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val uniform : t -> float
(** [uniform t] is uniform in [\[0, 1)]. *)

val bool : t -> bool
(** Fair coin. *)

val exponential : t -> mean:float -> float
(** Exponentially distributed draw with the given mean (inter-arrival
    times of interactions). *)

val log_normal : t -> mu:float -> sigma:float -> float
(** Log-normal draw: [exp (mu + sigma * N(0,1))].  Used for transferred
    quantities, which are heavy-tailed in all three real datasets. *)

val gaussian : t -> float
(** Standard normal draw (Box–Muller). *)

val zipf : t -> n:int -> s:float -> int
(** [zipf t ~n ~s] draws from a Zipf distribution over [\[0, n)] with
    exponent [s] by inverse-transform sampling over an approximated
    harmonic CDF.  Used to pick interaction endpoints with realistic
    popularity skew. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val choose : t -> 'a array -> 'a
(** Uniformly random element.  @raise Invalid_argument on empty array. *)
