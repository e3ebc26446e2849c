(** Deterministic synthetic interaction-network generator.

    Produces networks with the shape described in {!Spec}: Zipf
    endpoint popularity, bursty multi-interaction edges, a tunable
    fraction of reciprocal edges, planted 2-/3-hop cycles with
    time-increasing interactions (so that cyclic flow is realisable,
    not just structural), and log-normal quantities. *)

val generate : seed:int -> Spec.t -> Compact.t
(** Same seed, same spec ⇒ identical network.  Vertices are labelled
    [0 .. n_vertices - 1], so a vertex's id equals its label. *)

type stats = {
  n_vertices : int;
  n_edges : int;
  n_interactions : int;
  avg_qty : float;  (** Mean interaction quantity — Table 4's "avg. flow". *)
}

val stats : Compact.t -> stats
