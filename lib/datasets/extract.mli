(** Subgraph extraction for the flow-computation experiments
    (Section 6.2, Figure 10).

    For every seed vertex that lies on at least one 2- or 3-hop cycle,
    the edges of all such cycles through the seed are merged into one
    subgraph; the seed is split into a source half and a sink half
    (the paper's [s143]/[t143]), and any cycle among the interior
    vertices is broken (DFS back-edge removal) so the maximum-flow
    machinery receives a DAG.  Subgraphs whose interaction count
    exceeds a cap are discarded, exactly as the paper discards
    subgraphs above 10K interactions. *)

type problem = {
  seed : int;  (** Original label of the seed vertex. *)
  graph : Graph.t;
  source : Graph.vertex;
  sink : Graph.vertex;
  n_interactions : int;
}

val subgraph_of_seed : Compact.t -> seed:Compact.vertex -> max_interactions:int -> problem option
(** [None] when the seed lies on no short cycle or the subgraph is too
    large.  The network must have no self-loops ({!Io.load}
    guarantees it). *)

val extract :
  ?max_interactions:int ->
  ?max_subgraphs:int ->
  Compact.t ->
  problem list
(** All seed subgraphs of the network, in increasing seed order —
    {!Compact} ids are label ranks, so seeds come in increasing label
    order and [max_subgraphs] keeps the lowest-label seeds whether the
    network came from CSV or from a snapshot.  Defaults:
    [max_interactions = 2000] (scaled-down counterpart of the paper's
    10K cap), [max_subgraphs = max_int]. *)

type summary = {
  n_subgraphs : int;
  avg_vertices : float;
  avg_edges : float;
  avg_interactions : float;
}
(** The per-dataset row of the paper's Table 5. *)

val summarize : problem list -> summary
