(** Greedy flow computation (Section 4.1).

    Interactions are scanned in global time order; each interaction
    [(t, q)] on edge [(v, u)] transfers [min q B(v)] from [v]'s buffer
    to [u]'s (Definition 4).  The designated source has an infinite
    buffer.  The greedy flow of the graph (Definition 5) is the
    quantity buffered at the sink after the scan — computed in time
    linear in the number of interactions.

    Quantity that arrives at a vertex at time [t] becomes usable
    {e strictly after} [t], matching the [t_j < t_i] condition of the
    paper's LP constraint (2); with distinct timestamps (the common
    case, and all of the paper's examples) this coincides with the
    paper's description.

    Interactions sharing a timestamp are scanned in the deterministic
    order of {!Graph.interactions_sorted} — time, then quantity, then
    source, then destination — which fixes the winner when
    same-instant transfers compete for one buffer.  Zero-quantity interactions move nothing
    and create no buffer entries; self-loops are unrepresentable
    ({!Graph.add_interaction} rejects them), so neither can inflate the
    flow.

    Works on arbitrary directed graphs — acyclicity is not required
    (only the maximum-flow accelerators need DAGs). *)

type transfer = {
  src : Graph.vertex;
  dst : Graph.vertex;
  time : float;
  offered : float;  (** The interaction's quantity [q]. *)
  moved : float;  (** The quantity actually transferred, [min q B]. *)
}
(** One step of the scan — the rows of the paper's Tables 2 and 3. *)

val flow : Graph.t -> source:Graph.vertex -> sink:Graph.vertex -> float
(** Greedy flow from [source] to [sink].  [0.] on graphs where the
    sink receives nothing.  @raise Invalid_argument if
    [source = sink]. *)

val flow_trace : Graph.t -> source:Graph.vertex -> sink:Graph.vertex -> float * transfer list
(** Greedy flow plus the full transfer log in scan order. *)

val arrivals_at_sink : Graph.t -> source:Graph.vertex -> sink:Graph.vertex -> Interaction.t list
(** The interactions (time, moved quantity) that increased the sink's
    buffer, in time order, zero-moves dropped.  This is the interaction
    sequence that the simplification pass (Lemma 3) installs on the
    replacement edge; the pattern path tables store its total. *)

val buffers : Graph.t -> source:Graph.vertex -> sink:Graph.vertex -> (Graph.vertex * float) list
(** Final buffer of every vertex after the scan (the source reports
    [infinity]). *)

(** {1 The scan kernel}

    The one implementation of the greedy rule, as an incremental state:
    {!flow}, {!flow_trace}, {!arrivals_at_sink} and {!buffers} replay
    it over {!Graph.interactions_sorted}, and the streaming daemon
    keeps one over its window.  Pushing or replaying interactions in
    that canonical order yields exactly {!flow}, bit for bit (the same
    floating-point operation sequence); another non-decreasing order
    of same-instant interactions may legitimately yield a different
    value.  Buffers are flat float arrays indexed by integer
    {e slots}; vertex labels are interned to slots on first sight (the
    source and sink first), and the arrays grow as new labels
    arrive. *)

module Kernel : sig
  type t

  val create : source:Graph.vertex -> sink:Graph.vertex -> t
  (** A fresh scan state with the source's buffer infinite.
      @raise Invalid_argument if [source = sink]. *)

  val replay :
    ?moved:floatarray ->
    ?lo:int ->
    ?hi:int ->
    t ->
    (Graph.vertex * Graph.vertex * Interaction.t) array ->
    unit
  (** Scans [inters.(lo) .. inters.(hi - 1)] in index order ([lo]
      defaults to [0], [hi] to the array's length), for example
      {!Graph.interactions_sorted} or the live range of the daemon's
      window.  The loop checks nothing, unlike {!push}: the times
      must be non-decreasing, continuing from the latest timestamp
      already scanned.  With [moved], the quantity interaction [j]
      moved is stored at [moved.(j)].  Apart from interning a label
      on first sight, the loop allocates nothing.
      @raise Invalid_argument if [lo] and [hi] do not delimit a range
      of the array. *)

  val push : t -> src:Graph.vertex -> dst:Graph.vertex -> Interaction.t -> float
  (** Scans one interaction and returns the quantity it moved.
      Quantity it delivers becomes usable only once a strictly later
      interaction is scanned.
      @raise Invalid_argument on a self-loop or a time before {!now}. *)

  val flow : t -> float
  (** Quantity the sink has absorbed so far. *)

  val buffer : t -> Graph.vertex -> float
  (** Current buffer of a vertex, arrivals at the latest timestamp
      included; the source reports [infinity], an unseen vertex [0.]. *)

  val now : t -> float
  (** Latest scanned timestamp, [nan] before the first interaction. *)

  val touches : t -> int
  (** Interactions so far that moved a positive quantity. *)
end
