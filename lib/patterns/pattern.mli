(** Network patterns (Definitions 2 and 3) and graph-browsing
    enumeration of their instances (Section 5.1).

    A pattern is a small labelled DAG.  Labels only express
    equality constraints: pattern vertices with the same label must map
    to the same graph vertex (that is how a cyclic transaction
    [a→b→c→a] is expressed as a DAG: the first and last vertices both
    carry label [a]); vertices with different labels must map to
    different graph vertices.

    The browser instantiates pattern vertices in index order — which
    must be a topological order with every non-initial vertex adjacent
    to an earlier one — following graph adjacency, verifying edge and
    distinctness constraints, and backtracking: the STwig-style
    exploration the paper describes. *)

type t = private {
  name : string;
  n : int;  (** Pattern vertices are [0 .. n-1]. *)
  labels : int array;  (** [labels.(i)] is the label of vertex [i]. *)
  edges : (int * int) list;
  sink : int;  (** Cached at {!make} time; see {!val-sink}. *)
}

val make : name:string -> labels:int array -> edges:(int * int) list -> t
(** Validates: edges form a DAG over [0 .. n-1]; vertex order is an
    enumeration order (each vertex [k > 0] has an edge to some
    [j < k]); same-label vertices are never adjacent (that would be a
    self-loop in the instance); vertex 0 is the unique source (no
    incoming pattern edge) and exactly one vertex has no outgoing
    edge (the flow sink).
    @raise Invalid_argument otherwise. *)

val source : t -> int
(** First vertex (index 0) — by convention the pattern's flow source. *)

val sink : t -> int
(** The unique vertex with no outgoing edge — the pattern's flow sink
    (not necessarily the last-declared vertex).  When it shares its
    label with the source, instances are cyclic and their flow is
    measured by splitting the shared graph vertex. *)

val is_cyclic_shape : t -> bool
(** Whether source and sink carry the same label. *)

type mapping = Compact.vertex array
(** [mapping.(i)] is the graph vertex (a {!Compact} id, i.e. a label
    rank) instantiating pattern vertex [i]. *)

exception Stop
(** Raise from the callback to abort enumeration early. *)

val browse :
  ?should_stop:(unit -> bool) -> ?anchor:Compact.vertex -> Compact.t -> t -> (mapping -> unit) -> unit
(** Enumerates every instance, invoking the callback with a mapping
    (the array is reused — copy it to retain).  Deterministic order:
    candidates are tried in ascending id, i.e. label, order, whichever
    file format the network was loaded from.  The network must have no
    self-loops ({!Io.load} guarantees it).
    [should_stop] is polled periodically {e between candidates} (not
    only between instances), so a time budget also interrupts long dry
    spells on hub vertices — the situation behind the paper's
    "15 days (est.)" entry for P5 on Bitcoin.  It is additionally
    checked {e unmasked immediately before every complete binding's
    callback}, so when the callback is the expensive step (a flow
    computation) an expired budget overshoots by at most one candidate
    step.  [anchor] restricts the
    walk to instances whose pattern vertex 0 maps to the given graph
    vertex — the sharding unit of the parallel catalog search:
    browsing every anchor in ascending order reproduces the unanchored
    enumeration exactly. *)

val instance_edges : Compact.t -> t -> mapping -> Compact.edge_id list
(** Graph edges realising each pattern edge.  @raise Invalid_argument
    if the mapping is not an instance. *)

val of_string : string -> t
(** Parses a pattern description: comma-separated edges over named
    vertices, e.g. ["a->b, b->c, c->a'"].  A name is a label plus
    optional primes: [a] and [a'] are {e distinct pattern vertices
    with the same label} (they must map to the same graph vertex) —
    exactly how the paper draws cyclic patterns as DAGs.  Vertices are
    ordered by first appearance, which must satisfy the enumeration
    requirements of {!make}.
    @raise Invalid_argument on syntax or structural errors. *)

val to_string : t -> string
(** Round-trips through {!of_string} (canonical vertex names). *)

val instance_flow : Compact.t -> t -> mapping -> float
(** Maximum flow of the instance: the mapped subgraph is built, the
    shared source/sink vertex is split for cyclic shapes, and the
    [Pre_sim] pipeline of Section 4 computes the flow. *)
