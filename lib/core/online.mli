(** Online greedy flow monitoring.

    The batch {!Greedy} scan assumes the whole interaction history is
    available; production monitoring (an FIU watching transactions, a
    NOC watching traffic) sees interactions as a live stream.  This
    module maintains the greedy buffers incrementally: push
    interactions in non-decreasing time order and read the running
    flow at any moment.  It runs {!Greedy.Kernel}, the same scan state
    as the batch functions, so pushing the full history in canonical
    order yields exactly {!Greedy.flow} (property-tested with
    [Float.equal]). *)

type t

val create : source:Graph.vertex -> sink:Graph.vertex -> t
(** Fresh monitor.  @raise Invalid_argument if [source = sink]. *)

val of_graph : Graph.t -> source:Graph.vertex -> sink:Graph.vertex -> t
(** [of_graph g ~source ~sink] replays every interaction of [g]
    through {!Greedy.Kernel.replay} in the canonical scan order of the
    batch algorithm — {!Graph.interactions_sorted}, i.e.
    [(time, qty, src, dst)] ascending — so
    [flow (of_graph g ~source ~sink)] equals
    [Greedy.flow g ~source ~sink] {e bit-for-bit}: both run the same
    floating-point operation sequence (property-tested).  This is the
    window-rebuild fallback of the streaming daemon: greedy flow
    cannot be rewound when old interactions leave a sliding window, so
    the monitor is rebuilt from the restricted graph instead.

    Equivalence holds only for the canonical order: two interactions
    sharing a timestamp may legitimately yield a different flow when
    pushed in another (still legal, non-decreasing) arrival order,
    because a sender's buffer decreases immediately within the instant
    (see the documented counterexample test).
    @raise Invalid_argument if [source = sink]. *)

val push : t -> src:Graph.vertex -> dst:Graph.vertex -> Interaction.t -> float
(** Feeds one interaction and returns the quantity it moved under the
    greedy rule (Definition 4).  Interactions must arrive in
    non-decreasing time order; same-instant arrivals only become
    usable once a strictly later interaction is pushed (the strict
    [t_j < t_i] semantics).
    @raise Invalid_argument on out-of-order timestamps or a
    self-loop. *)

val flow : t -> float
(** Quantity accumulated at the sink so far. *)

val buffer : t -> Graph.vertex -> float
(** Current buffer of a vertex (arrivals at the latest pushed
    timestamp included); the source reports [infinity]. *)

val last_time : t -> float option
(** Timestamp of the latest pushed interaction. *)

val n_pushed : t -> int
