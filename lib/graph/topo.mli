(** Order and reachability utilities over interaction networks.

    The maximum-flow accelerators of the paper (Algorithm 1 and
    Algorithm 2) operate on DAGs and need a topological order of the
    vertices; the subgraph extractor needs a way to discard
    cycle-closing edges so extracted subgraphs are DAGs. *)

val sort : Graph.t -> Graph.vertex list option
(** [sort g] is a topological order of [g]'s vertices (Kahn's
    algorithm, smallest-vertex-first for determinism), or [None] if
    [g] has a cycle. *)

val sort_exn : Graph.t -> Graph.vertex list
(** @raise Invalid_argument if the graph has a cycle. *)

val is_dag : Graph.t -> bool

val reachable_from : Graph.t -> Graph.vertex -> Unit.t Map.Make(Int).t
(** Forward-reachable set (including the start vertex), as a map used
    as a set. *)

val reaches : Graph.t -> Graph.vertex -> Graph.vertex -> bool
(** [reaches g v u] holds when there is a directed path from [v] to
    [u] (including the empty path when [v = u]). *)

val dagify : Graph.t -> root:Graph.vertex -> Graph.t
(** [dagify g ~root] returns [g] with every DFS back edge (w.r.t. a
    deterministic DFS from [root]) removed, so the result is acyclic.
    Vertices unreachable from [root] keep their edges only if those
    edges do not lie on a cycle through reached vertices; in practice
    the extractor only calls this on graphs where all vertices are
    reachable from [root].  Used when merging cyclic seed paths
    (Section 6.2) into a DAG flow problem. *)
