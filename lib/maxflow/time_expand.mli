(** Time-expanded static network (Akrida et al., CIAC 2017).

    Section 4.2.1 of the paper shows its maximum-flow problem is
    equivalent to maximum flow in temporal networks with ephemeral
    edges, which in turn reduces to *static* maximum flow on a
    time-expanded graph.  This module performs that reduction:

    - one node per (vertex, event time) pair — an event time of a
      vertex is any timestamp at which it sends or receives;
    - infinite-capacity holdover arcs between consecutive event nodes
      of the same vertex (buffering);
    - for each interaction [(t, q)] on edge [(v, u)], an arc of
      capacity [q] leaving the node of [v] that holds the quantity
      available {e strictly before} [t] and entering the node of [u]
      that is available strictly after [t] — the same strict-time
      semantics as the LP's constraint (2);
    - interactions leaving the designated source draw from a master
      source node [S] (infinite buffer), and interactions entering the
      designated sink deposit into a master sink node [T].

    The maximum [S]→[T] flow equals the paper's maximum flow.  The
    node count is O(#interactions), so solving with {!Dinic} realises
    the PTIME bound quoted in the paper.

    Infinite interaction quantities (synthetic source/sink edges) are
    replaced by a finite big-M (the sum of all finite quantities), which
    is exact whenever some finite edge separates source from sink —
    always true for the synthetic-endpoint construction of Section 4. *)

type t = private {
  net : Net.t;
  source_node : int;
  sink_node : int;
  n_event_nodes : int;
  interaction_arcs : (Net.arc * (Graph.vertex * Graph.vertex * Interaction.t)) list;
      (** Which network arc realises which interaction (dead
          interactions have no arc).  Holdover arcs are absent: they
          only model buffering.  Used by flow decomposition. *)
}

val build :
  ?buffer_capacity:(Graph.vertex -> float) ->
  Graph.t ->
  source:Graph.vertex ->
  sink:Graph.vertex ->
  t
(** Builds the time-expanded network.  [buffer_capacity] bounds how
    much quantity each vertex may hold between consecutive events —
    the paper assumes unbounded buffers ("we do not set a bound on how
    much a node can buffer"), which is the default ([fun _ ->
    infinity]); a finite capacity simply caps the corresponding
    holdover arcs, modelling routers or accounts with storage limits.
    The source and sink are never capped.
    @raise Invalid_argument if [source = sink], either vertex is
    absent from a non-empty graph, or a capacity is negative/NaN. *)

val max_flow :
  ?algo:[ `Dinic | `Edmonds_karp | `Push_relabel ] ->
  ?buffer_capacity:(Graph.vertex -> float) ->
  Graph.t ->
  source:Graph.vertex ->
  sink:Graph.vertex ->
  float
(** Builds and solves in one go (default [`Dinic]). *)

type solution = {
  value : float;
  interaction_flows : ((Graph.vertex * Graph.vertex * Interaction.t) * float) list;
      (** Flow routed over each interaction's arc, read back from the
          solved residual network.  Dead interactions (never reachable
          — no arc in the expansion) are absent; they carry zero. *)
}

val max_flow_detailed :
  ?algo:[ `Dinic | `Edmonds_karp | `Push_relabel ] ->
  ?buffer_capacity:(Graph.vertex -> float) ->
  Graph.t ->
  source:Graph.vertex ->
  sink:Graph.vertex ->
  solution
(** Like {!max_flow}, but also extracts the per-interaction flows from
    the residual network — the independently-computed solution vector
    the differential verifier audits against the LP's. *)
