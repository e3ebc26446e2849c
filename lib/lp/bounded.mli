(** Simplex with native upper bounds ("bounded-variable simplex").

    The flow LP of Section 4.2.1 has one bound pair [0 ≤ x_i ≤ q_i]
    per interaction.  Written as explicit rows, those bounds would
    double the tableau height; the classic bounded-variable simplex
    instead keeps nonbasic variables at either bound and handles
    "bound flips" without pivoting, so the tableau has only the true
    buffer constraints.

    Scope: maximization over [A x ≤ b] with [b ≥ 0] and
    [0 ≤ x ≤ u] ([u_j] may be [infinity]) — exactly the shape of the
    paper's LP, which is feasible at the origin.
    @raise Invalid_argument if some [b < 0], some [u_j] is negative
    or NaN, or an array length disagrees with [c]. *)

type outcome =
  | Optimal of { objective : float; solution : float array }
  | Unbounded
  | Iteration_limit

val solve :
  ?eps:float ->
  ?max_iters:int ->
  ?metrics:Solver_metrics.t ->
  c:float array ->
  upper:float array ->
  rows:(float array * float) list ->
  unit ->
  outcome
(** [solve ~c ~upper ~rows ()] maximizes [c·x] subject to
    [coefs·x ≤ rhs] for each row and [0 ≤ x_j ≤ upper.(j)].
    @param eps pivot tolerance (default [Tin_util.Fcmp.default_policy.pivot_eps]).
    @param max_iters exact budget on pivots + bound flips (default
    [50_000]): a run needing [p] of them returns its result with
    [max_iters = p] and [Iteration_limit] with [max_iters = p - 1].
    @param metrics accumulates work counts into the given record
    (see {!Solver_metrics}); also feeds the [lp_iters] / [lp_pivots] /
    [lp_bound_flips] labeled observability counters with
    [solver="bounded"] ({!Tin_obs.Obs}). *)
