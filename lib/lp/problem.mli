(** Builder for the paper's maximum-flow LP (Section 4.2.1, Eqs. 1–3).

    A mutable problem builder in the style of classic LP libraries
    (the paper's implementation used lpsolve), restricted to the one
    shape the flow LP has: maximize [c·x] subject to [A x ≤ b] with
    [b ≥ 0] and [0 ≤ x_i ≤ u_i].  The origin is always feasible, so
    the box-bounded revised simplex ({!Sparse}) takes every problem
    this builder accepts, and no solve can end infeasible. *)

type t
type var

type status = [ `Optimal | `Unbounded | `Iteration_limit ]

type solution = {
  status : status;
  objective : float;  (** Meaningful only when [status = `Optimal]. *)
  value : var -> float;
      (** Optimal value of a variable; [0.] unless [`Optimal]. *)
}

val create : unit -> t
(** Fresh maximization problem. *)

val add_var : ?ub:float -> ?obj:float -> t -> var
(** New variable with bounds [\[0, ub\]] ([ub] defaults to [infinity])
    and objective coefficient [obj] (default [0.]).
    @raise Invalid_argument if [ub] is negative or NaN, [obj] is NaN,
    or the problem was already solved. *)

val add_le : t -> (float * var) list -> float -> unit
(** [add_le p terms rhs] adds [Σ coef·var ≤ rhs].  Repeated variables
    in [terms] are summed.  A chain of one row ({!add_cumulative}).
    @raise Invalid_argument if [rhs] is negative or NaN, a coefficient
    is NaN, a variable is unknown, or the problem was already solved. *)

val add_cumulative : t -> ((float * var) list * float) list -> unit
(** [add_cumulative p [ (terms_1, rhs_1); ...; (terms_K, rhs_K) ]] adds
    a chain of [K] rows, row [k] stating
    [Σ_{j≤k} terms_j ≤ Σ_{j≤k} rhs_j].  Only the increments are stored
    (row [k]'s slack is carried into row [k+1], {!Sparse.solve}'s
    [next]), so a chain costs O(size of its increments), not of its
    running sums.  Every [rhs_k] must be non-negative.
    @raise Invalid_argument with {!add_le}'s messages, adding no row. *)

val n_vars : t -> int
val n_constraints : t -> int

val solve : ?eps:float -> ?max_iters:int -> ?metrics:Solver_metrics.t -> t -> solution
(** Solves the problem with the sparse bounded-variable revised simplex
    ({!Sparse}: column-wise storage built straight from the increments,
    the chains as its [next] links, and an eta-file basis inverse, no
    tableau).  The builder is frozen afterwards.

    [metrics] accumulates the solver's work counts (iterations,
    pivots, bound flips, refactorizations) into the given record; the
    same counts always feed the [lp_*{solver="sparse"}] observability
    counters, and the whole call is wrapped in an ["lp.solve"] span
    (with solver, vars and rows args) when {!Tin_obs.Obs} tracing is
    enabled. *)
