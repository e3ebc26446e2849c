(** Time-expanded static network (Akrida et al., CIAC 2017).

    Section 4.2.1 of the paper shows its maximum-flow problem is
    equivalent to maximum flow in temporal networks with ephemeral
    edges, which in turn reduces to *static* maximum flow on a
    time-expanded graph.  This module performs that reduction in one
    pass over the interactions in scan order
    ({!Graph.interactions_sorted}), numbering the event nodes in time
    order after [S] and [T] (below):

    - a vertex with an unbounded buffer (the paper's model) gets one
      node per event time — a timestamp at which it sends or receives.
      The node holds what the vertex has after that event: arrivals at
      the event land in it, and departures at the vertex's next event
      draw from it, so quantity is only relayed strictly later.  An
      infinite-capacity holdover arc joins consecutive event nodes;
    - a vertex with a finite buffer capacity [c] gets two nodes per
      event time after its first: the buffer just before the event,
      which departures draw from, fed from the previous event's node by
      a carry arc of capacity [c], and the state just after it, joined
      to the buffer by an infinite arc.  Contracting each carry arc
      when [c] is infinite gives the unbounded layout, so the two
      agree;
    - for each interaction [(t, q)] on edge [(v, u)], an arc of
      capacity [q] from the node of [v] that holds the quantity
      available {e strictly before} [t] to the node of [u] that holds
      it just after [t] — the same strict-time semantics as the LP's
      constraint (2).  Departures at a vertex's first event have no
      arc: nothing is buffered before it;
    - interactions leaving the designated source draw from a master
      source node [S] (infinite buffer), and interactions entering the
      designated sink deposit into a master sink node [T].  The source
      and sink get no event nodes, so interactions entering the source
      or leaving the sink have no arc either.

    The maximum [S]→[T] flow equals the paper's maximum flow.  The
    node count is O(#interactions), so solving with {!Dinic} realises
    the PTIME bound quoted in the paper.

    Infinite interaction quantities (synthetic source/sink edges) are
    replaced by a finite big-M (the sum of all finite quantities), which
    is exact whenever some finite edge separates source from sink —
    always true for the synthetic-endpoint construction of Section 4. *)

type t = private {
  net : Net.t;
  source_node : int;  (** [S], node 0. *)
  sink_node : int;  (** [T], node 1. *)
  n_event_nodes : int;  (** Nodes other than [S] and [T]. *)
  interactions : (Graph.vertex * Graph.vertex * Interaction.t) array;
      (** {!Graph.interactions_sorted}: every interaction in scan order. *)
  interaction_arcs : Net.arc array;
      (** Slot of the arc that realises [interactions.(k)], or [-1] when
          it has none (see above).  Holdover and carry arcs are absent:
          they only model buffering.  Used by flow decomposition. *)
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
  ?buffer_capacity:(Graph.vertex -> float) ->
  Graph.t ->
  source:Graph.vertex ->
  sink:Graph.vertex ->
  float
(** Builds the network and solves it with {!Dinic}. *)

type solution = {
  value : float;
  interaction_flows : ((Graph.vertex * Graph.vertex * Interaction.t) * float) list;
      (** Flow routed over each interaction's arc, read back from the
          solved residual network, in scan order.  Interactions with no
          arc in the expansion are absent; they carry zero. *)
}

val max_flow_detailed :
  ?buffer_capacity:(Graph.vertex -> float) ->
  Graph.t ->
  source:Graph.vertex ->
  sink:Graph.vertex ->
  solution
(** Like {!max_flow}, but also extracts the per-interaction flows from
    the residual network — the independently-computed solution vector
    the differential verifier audits against the LP's. *)
