(** Persistent temporal interaction network (Definition 1).

    A directed graph whose vertices are integers and whose edges carry
    time-sorted interaction sequences.  The structure is persistent:
    the preprocessing (Algorithm 1) and simplification (Algorithm 2)
    passes return new graphs, leaving their input intact — which keeps
    the pipeline code and the tests honest.

    Self-loops are rejected: an interaction from a vertex to itself
    cannot carry source-to-sink flow, and the paper's extraction step
    (Section 6.2) splits cyclic seed vertices into a source/sink pair
    instead.  Parallel interactions (same edge, same timestamp) are
    allowed and kept in insertion-stable time order. *)

type vertex = int

type t

val empty : t

(** {1 Construction} *)

val add_vertex : t -> vertex -> t
(** Adds an isolated vertex (no-op if present). *)

val add_interaction : t -> src:vertex -> dst:vertex -> Interaction.t -> t
(** Appends one interaction to edge [(src, dst)], creating vertices and
    the edge as needed.  @raise Invalid_argument on a self-loop. *)

val add_edge : t -> src:vertex -> dst:vertex -> Interaction.t list -> t
(** Merges a batch of interactions into edge [(src, dst)].  The batch
    need not be sorted.  An empty batch still creates the vertices but
    no edge.  @raise Invalid_argument on a self-loop. *)

val set_edge : t -> src:vertex -> dst:vertex -> Interaction.t list -> t
(** Replaces the interaction sequence of edge [(src, dst)]; an empty
    list removes the edge (vertices remain). *)

val remove_edge : t -> src:vertex -> dst:vertex -> t
(** Removes an edge if present (vertices remain). *)

val remove_vertex : t -> vertex -> t
(** Removes a vertex and all incident edges. *)

val of_edges : (vertex * vertex * (float * float) list) list -> t
(** Builds a graph from edge descriptions with [(time, qty)] pairs —
    the notation used for the paper's worked examples. *)

val of_sorted_edges :
  vertices:vertex list -> (vertex * vertex * Interaction.t list) Seq.t -> t
(** Bulk constructor over the layout {!Compact} stores: edges in
    strictly increasing [(src, dst)] order, each with a non-empty
    sequence already in time order.  Builds the graph in one pass over
    the edges, which are read once and need not be held in memory
    together, and sorts nothing; the result equals folding {!add_edge}
    over the edges, starting from [vertices] (an edge's endpoints need
    not be listed there).
    @raise Invalid_argument on a self-loop, on edges out of order, or
    on a sequence that is empty or out of time order. *)

(** {1 Observation} *)

val mem_vertex : t -> vertex -> bool
val mem_edge : t -> src:vertex -> dst:vertex -> bool

val edge : t -> src:vertex -> dst:vertex -> Interaction.t list
(** Interaction sequence of an edge, sorted by time; [[]] if absent. *)

val vertices : t -> vertex list
(** All vertices in increasing order. *)

val out_edges : t -> vertex -> (vertex * Interaction.t list) list
(** Successors with their interaction sequences, in increasing vertex
    order; [[]] for unknown vertices. *)

val in_edges : t -> vertex -> (vertex * Interaction.t list) list

val succs : t -> vertex -> vertex list
val preds : t -> vertex -> vertex list
val out_degree : t -> vertex -> int
val in_degree : t -> vertex -> int

val n_vertices : t -> int
val n_edges : t -> int
val n_interactions : t -> int

val sources : t -> vertex list
(** Vertices with no incoming edge (in increasing order). *)

val sinks : t -> vertex list
(** Vertices with no outgoing edge. *)

val fold_edges : (vertex -> vertex -> Interaction.t list -> 'a -> 'a) -> t -> 'a -> 'a
val iter_edges : (vertex -> vertex -> Interaction.t list -> unit) -> t -> unit

val scan_compare :
  vertex * vertex * Interaction.t -> vertex * vertex * Interaction.t -> int
(** The canonical scan order of [(src, dst, interaction)] triples:
    {!Interaction.compare} (time, then quantity), then source, then
    destination. *)

val interactions_sorted : t -> (vertex * vertex * Interaction.t) array
(** Every interaction of the graph sorted by {!scan_compare} — the
    scan order of the greedy algorithm. *)

val total_qty : t -> float
(** Sum of all interaction quantities. *)

val equal : t -> t -> bool
(** Structural equality (exact float comparison on interactions) —
    used by tests that check the preprocessing traces of the paper. *)

val pp : Format.formatter -> t -> unit
(** One edge per line: [v -> u: (t1,q1),(t2,q2)]. *)
