(** DAG preprocessing (Section 4.2.3, Algorithm 1).

    Removes interactions that provably cannot carry source-to-sink
    flow: an outgoing interaction of vertex [v] whose timestamp
    precedes every incoming interaction of [v] moves nothing, ever.
    Deleting interactions may empty edges; deleting edges may strand
    vertices (no incoming ⇒ nothing to forward; no outgoing ⇒ nothing
    can reach the sink through them), whose removal cascades both
    downstream (handled by the topological sweep) and upstream
    (handled by a recursive clean-up).  A single pass over the vertices
    in topological order suffices; total cost is linear in the number
    of interactions. *)

type result = {
  graph : Graph.t;  (** The reduced DAG. *)
  zero_flow : bool;
      (** The reduction proved the maximum flow is 0 (the source or
          sink was eliminated or disconnected) — no solver needed. *)
  removed_interactions : int;
  removed_edges : int;
  removed_vertices : int;
}

val run : Graph.t -> source:Graph.vertex -> sink:Graph.vertex -> result
(** Preprocesses a DAG.  The input graph is unchanged (persistent
    structure).  @raise Invalid_argument if the graph is cyclic or
    [source = sink]. *)
