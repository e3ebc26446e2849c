(** Sparse bounded-variable revised simplex.

    Solves [max c·x  s.t.  A x ≤ b,  0 ≤ x ≤ upper] — the shape of
    the paper's flow LP, feasible at the origin — and stores the matrix
    column-wise (CSC), never materializing a tableau; rows may come in
    chains of increments (see [next]).  Upper bounds are native: a
    nonbasic variable sits at either bound and moves between them by a
    bound flip, without a pivot, so the basis has one row per buffer
    constraint only.  The basis inverse is kept in product form (a
    flat eta file over the all-slack basis, whose inverse is a running
    sum along each chain) with periodic refactorization, so one
    iteration costs O(nnz) plus the eta-file work instead of a dense
    tableau's O(m·(n+m)).  Pricing is Dantzig over a candidate list
    (partial pricing) with a Bland fallback against cycling.

    Flow LPs (one column per interaction, one chain per vertex with a
    row per distinct sending timestamp, ±1 coefficients) are the
    intended workload; any origin-feasible box-constrained LP fits. *)

type outcome =
  | Optimal of { objective : float; solution : float array }
  | Unbounded
  | Iteration_limit

val solve :
  ?eps:float ->
  ?max_iters:int ->
  ?refactor_every:int ->
  ?metrics:Solver_metrics.t ->
  c:float array ->
  upper:float array ->
  rhs:float array ->
  cols:(int * float) list array ->
  next:int array ->
  unit ->
  outcome
(** [solve ~c ~upper ~rhs ~cols ~next ()] maximizes [c·x] subject to
    [A x ≤ b] and [0 ≤ x ≤ upper].  [next.(i)] is the row that
    continues row [i], or [-1]; a link goes forward
    ([i < next.(i) < m]) and continues no row twice.  Row [i] of [A]
    (of [b]) sums row [i] of [D] (of [rhs]) and the rows it continues,
    so [A = D] when [next] is all [-1].  Column [j] of [D] is [cols.(j)],
    a list of [(row, coef)] pairs; duplicate entries are summed.  [rhs]
    entries must be non-negative (the origin must be feasible) and
    [upper] entries non-negative ([infinity] allowed); NaN is refused
    in both.
    [refactor_every] bounds the eta-file length between
    refactorizations (default 64; mainly a testing knob).

    [max_iters] is an exact budget on the work passes (pivots, bound
    flips and defensive refactorize-retries): a run needing [p] of them
    returns its result with [max_iters = p] and [Iteration_limit] with
    [max_iters = p - 1].  [metrics] accumulates the work counts into
    the given record (see {!Solver_metrics}); the same counts also feed
    the [lp_iters] / [lp_pivots] / [lp_bound_flips] /
    [lp_refactorizations] / [lp_eta_resets] labeled observability
    counters with [solver="sparse"] ({!Tin_obs.Obs}).
    @raise Invalid_argument on arity mismatches, negative or NaN [rhs]
    or [upper] entries, NaN entries in [c] or [cols], out-of-range
    row indices, or a [next] link that breaks the rule above. *)
