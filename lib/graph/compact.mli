(** Flat columnar interaction-network substrate.

    The persistent {!Graph.t} is convenient for the algorithmic code of
    the paper but record/list/map-heavy; at the multi-million
    interaction scale of the paper's experiments (Bitcoin, Prosper,
    CTU-13) load time and resident memory are dominated by boxing.
    [Compact] stores the whole network as parallel arrays:

    - one global interaction table — [src], [dst] (compact vertex ids)
      and unboxed [time], [qty] ([floatarray]) columns — sorted once by
      [(time, qty, src, dst)], the scan order of the greedy algorithm
      ({!Graph.interactions_sorted});
    - a permutation [by_edge] of interaction ids grouped by edge, with
      per-edge ranges, so per-edge sequences read as slices;
    - CSR-style out/in adjacency over the distinct edges, themselves
      sorted by [(src, dst)].

    Compact vertex ids are {e sorted-label ranks}: [label] is strictly
    increasing in the id, so iterating edges in id order visits them in
    the same order as {!Graph.iter_edges} visits raw labels.

    [Compact] is the one compiled substrate and the only structure a
    network file is read into: {!Snapshot} persists it as [.tinb], and
    {!Io} loads both formats into it.  Pattern search, path tables and
    subgraph extraction browse its adjacency directly, and
    {!to_graph}/{!edges_to_graph} hand (sub)networks to the flow
    algorithms as a persistent {!Graph.t}, through the one bulk
    constructor {!Graph.of_sorted_edges}: edges are already in
    [(src, dst)] order and each edge's interactions in time order, so
    nothing is sorted again.  Because ids are label ranks, the same
    network gets the same ids, and hence the same enumeration order,
    whether it was read from CSV or from a snapshot.

    Unlike {!Graph.t}, the substrate tolerates self-loops (the binary
    snapshot format must round-trip arbitrary well-formed files);
    {!to_graph} and {!edges_to_graph} reject them, and {!Io.load}
    refuses a network that has any. *)

type vertex = int
(** Compact vertex id in [[0, n_vertices)] — the rank of the vertex's
    raw label in sorted order. *)

type edge_id = int
(** Edge index in [[0, n_edges)], ordered by [(src, dst)]. *)

type t

(** {1 Construction} *)

val of_entries : ?vertices:int list -> (int * int * Interaction.t) list -> t
(** [of_entries entries] builds the substrate from raw
    [(src_label, dst_label, interaction)] triples (any order;
    duplicates allowed).  [vertices] adds isolated vertices by raw
    label.  Self-loops are accepted. *)

val merge : t -> (int * int * Interaction.t) list -> t
(** [merge t entries] equals [of_entries ~vertices ((t's entries) @ entries)]
    with [vertices] every label of [t], isolated ones included.  Only
    [entries] is sorted; it is merged into [t]'s columns in one pass
    and the indexes are rebuilt by counting.  [t] is unchanged. *)

val of_graph : Graph.t -> t
(** Conversion from the persistent view, preserving isolated
    vertices. *)

val to_graph : t -> Graph.t
(** The persistent view the flow algorithms run on, isolated vertices
    included ({!Graph.of_sorted_edges} over every edge).
    @raise Invalid_argument if the substrate contains a self-loop
    ({!Graph.t} cannot represent one). *)

val edges_to_graph : t -> edge_id list -> Graph.t
(** Persistent subgraph induced by a set of edges (raw labels); the
    ids may come in any order, and duplicates are harmless.
    @raise Invalid_argument on a self-loop edge. *)

val equal : t -> t -> bool
(** Structural equality: same labels and identical interaction columns
    (exact float comparison).  Because every constructor canonicalises
    to the same global sort, two substrates over the same multiset of
    entries are equal. *)

(** {1 Dimensions and vertices} *)

val n_vertices : t -> int
val n_edges : t -> int
val n_interactions : t -> int

val label : t -> vertex -> int
(** Raw label of a compact id; strictly increasing in the id. *)

val vertex_of_label : t -> int -> vertex option
val out_degree : t -> vertex -> int
val in_degree : t -> vertex -> int
val has_self_loops : t -> bool

(** {1 Global interaction table}

    Index [k] ranges over [[0, n_interactions)] in scan order. *)

val inter_time : t -> int -> float
val inter_qty : t -> int -> float

(** {1 Edges and adjacency} *)

val edge_src : t -> edge_id -> vertex
val edge_dst : t -> edge_id -> vertex

val edge_n_inter : t -> edge_id -> int

val edge_inter : t -> edge_id -> int -> int
(** [edge_inter t e k] is the global interaction index of the [k]-th
    (time-ordered) interaction of edge [e]. *)

val edge_interactions : t -> edge_id -> Interaction.t list
(** Boxed per-edge sequence in time order (allocates; hot loops read
    {!edge_inter} with {!inter_time}/{!inter_qty} instead). *)

val edge_total_qty : t -> edge_id -> float

val iter_succs : t -> vertex -> (vertex -> edge_id -> unit) -> unit
(** Successors of [v] in ascending compact-id order.  Out-rows are
    contiguous edge-id ranges, so [edge_id] values are consecutive. *)

val iter_preds : t -> vertex -> (vertex -> edge_id -> unit) -> unit
(** Predecessors of [v] in ascending compact-id order. *)

val find_edge : t -> src:vertex -> dst:vertex -> edge_id option
(** Binary search over the sorted out-row of [src]. *)

(** {1 Raw columns (snapshot interchange)} *)

type columns = {
  c_labels : int array;
  c_src : int array;
  c_dst : int array;
  c_time : floatarray;
  c_qty : floatarray;
}
(** The five persisted columns.  [c_labels] maps compact id to raw
    label (strictly increasing); the remaining four are the global
    interaction table in scan order. *)

val columns : t -> columns
(** Zero-copy view of the internal columns — treat as read-only. *)

val of_columns : columns -> (t, string) result
(** Validates the invariants (consistent lengths, strictly increasing
    labels, ids in range, no NaN, non-negative quantities, global
    [(time, qty, src, dst)] sort) and rebuilds the derived indexes.
    [Error] carries a human-readable reason — the snapshot loader
    prefixes it with file context. *)
