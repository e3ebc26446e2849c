(** Maximum flow as linear programming (Section 4.2.1).

    One variable [x_i ∈ [0, q_i]] per interaction that does not
    originate at the source (source-origin interactions always carry
    their full quantity, Eq. 1 and the discussion below it).  For every
    vertex [v ∉ {source}] and every distinct timestamp [τ] at which
    [v] sends, a buffer constraint bounds what [v] may have sent up to
    and including [τ] by what it received strictly before [τ]
    (Eq. 2, in cumulative form so that simultaneous interactions cannot
    double-spend a buffer).  A vertex's rows form one chain of
    increments ({!Tin_lp.Problem.add_cumulative}), so [k] events cost
    O(k) nonzeros, and a row's slack is the buffer carried to the next
    sending time.  The objective maximizes the quantity arriving at
    the sink (Eq. 3). *)

type lp = {
  problem : Tin_lp.Problem.t;
  n_vars : int;  (** Number of LP variables (non-source interactions). *)
  n_rows : int;  (** Number of buffer constraints. *)
  fixed_into_sink : float;
      (** Constant objective contribution of source→sink interactions. *)
  objective_vars : (Tin_lp.Problem.var * float) list;
      (** Sink-incoming variables (with coefficient 1) — kept for
          inspection. *)
  var_interactions :
    (Tin_lp.Problem.var * (Graph.vertex * Graph.vertex * Interaction.t)) list;
      (** Which interaction each LP variable transfers — the mapping
          the differential verifier audits solutions through. *)
  fixed_interactions : (Graph.vertex * Graph.vertex * Interaction.t) list;
      (** Source-origin interactions, fixed at full quantity (Eq. 1). *)
}

type assignment = {
  src : Graph.vertex;
  dst : Graph.vertex;
  interaction : Interaction.t;
  amount : float;  (** Quantity the solution routes over it. *)
}
(** One interaction's share of an optimal solution — the LP solution
    vector mapped back onto the network.  Source-origin interactions
    appear with their full quantity (the LP's Eq.-1 convention). *)

val build : Graph.t -> source:Graph.vertex -> sink:Graph.vertex -> lp
(** Formulates the LP.  Works on arbitrary (even cyclic) graphs: the
    constraints are temporal, not structural.
    @raise Invalid_argument if [source = sink]. *)

val solve :
  ?solver:[ `Auto ] ->
  ?eps:float ->
  ?max_iters:int ->
  Graph.t ->
  source:Graph.vertex ->
  sink:Graph.vertex ->
  (float, [ `Unbounded | `Iteration_limit ]) Stdlib.result
(** Builds and solves with the sparse revised simplex
    ({!Tin_lp.Problem.solve}); [Ok flow] on success.  The LP is always
    feasible ([x = 0] satisfies every row), and [`Unbounded] happens
    only on graphs with an all-infinite source→sink path.

    [solver] is accepted and ignored: there is one LP solver, and the
    end-to-end benchmark under [perfbench/] still passes
    [~solver:`Auto].  The parameter goes when that harness drops the
    argument. *)

val solve_detailed :
  ?eps:float ->
  ?max_iters:int ->
  Graph.t ->
  source:Graph.vertex ->
  sink:Graph.vertex ->
  (float * assignment list, [ `Unbounded | `Iteration_limit ]) Stdlib.result
(** Like {!solve}, but also returns the full solution vector as
    per-interaction {!assignment}s, one per interaction of the graph
    (sink-origin interactions excluded — they carry nothing).  The
    verifier audits per-interaction capacity residuals and per-vertex
    temporal conservation from this list. *)

val n_variables : Graph.t -> source:Graph.vertex -> int
(** Number of LP variables the formulation would have — the problem
    size measure used in the paper's Figure 7 discussion. *)
