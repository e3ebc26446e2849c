(** Tolerant floating-point comparison.

    Flow quantities go through simplex pivots, so exact equality is not
    meaningful.  All flow-level comparisons in the library go through
    this module with a shared tolerance {!policy}: the solvers, the
    pattern tables, and the differential verifier ([Tin_verify]) must
    agree on what "equal" means, or a cross-check can report phantom
    discrepancies (or miss real ones). *)

type policy = {
  flow_eps : float;
      (** Relative tolerance for flow-{e value} comparisons: oracle
          agreement, conservation/capacity residual audits, solubility
          consistency.  Default [1e-6]. *)
  pivot_eps : float;
      (** Simplex pivot/zero tolerance used inside the LP solver
          ([Tin_lp.Sparse]).  Default [1e-9]. *)
  path_eps : float;
      (** Augmenting-path residual threshold of Dinic's static max
          flow ([Tin_maxflow.Dinic]).  Default [1e-12]. *)
}
(** The single tolerance policy threaded through every numeric layer.
    The three levels are deliberately ordered
    [path_eps < pivot_eps < flow_eps]: solver-internal noise must stay
    well below the resolution at which flow values are compared. *)

val default_policy : policy

val policy :
  ?flow_eps:float -> ?pivot_eps:float -> ?path_eps:float -> unit -> policy
(** Policy with selected fields overridden.
    @raise Invalid_argument on NaN or negative tolerances. *)

val default_eps : float
(** [default_policy.flow_eps] ([1e-6]) — the default of the comparison
    functions below. *)

val approx_eq : ?eps:float -> float -> float -> bool
(** [approx_eq a b] holds when [|a - b| <= eps * max 1 (|a|, |b|)]. *)

val approx_le : ?eps:float -> float -> float -> bool
(** [approx_le a b] holds when [a <= b] up to tolerance. *)

val approx_ge : ?eps:float -> float -> float -> bool

val is_zero : ?eps:float -> float -> bool
