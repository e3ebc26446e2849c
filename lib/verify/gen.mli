(** Randomized temporal-interaction-network instances for the
    differential verifier.

    Base generators, shared with the property tests (random DAGs,
    general digraphs, chains, Lemma-2 graphs), use integral times and
    quantities; mutation operators then push the instances into the
    numeric and temporal corners the oracles must agree on: duplicated
    timestamps, zero quantities, subnormal and huge magnitudes.
    Everything is driven by an explicit seeded PRNG so each case is
    reproducible from [(seed, case index)]. *)

type case = {
  graph : Graph.t;
  source : Graph.vertex;
  sink : Graph.vertex;
  family : string;  (** Base generator name ("dag", "digraph", …). *)
  mutations : string list;  (** Mutation operators applied, in order. *)
}

val random_dag :
  ?max_v:int -> ?max_edges:int -> Tin_util.Prng.t -> Graph.t * Graph.vertex * Graph.vertex
(** Vertices [0..n-1], source [0], sink [n-1], edges only from lower to
    higher index. *)

val random_digraph :
  ?max_v:int ->
  ?max_edges:int ->
  ?max_inter:int ->
  Tin_util.Prng.t ->
  Graph.t * Graph.vertex * Graph.vertex
(** General directed graph — cycles allowed.  Each edge carries 1 to
    [max_inter] (default 3) interactions. *)

val random_chain :
  ?max_len:int -> ?max_inter:int -> Tin_util.Prng.t -> Graph.t * Graph.vertex * Graph.vertex
(** Chain [0 → 1 → … → k] (Lemma-1 family); [max_inter] as in
    {!random_digraph}. *)

val random_lemma2 :
  ?max_v:int -> Tin_util.Prng.t -> Graph.t * Graph.vertex * Graph.vertex
(** DAG where every interior vertex has exactly one outgoing edge
    (Lemma-2 family, greedy-soluble by construction). *)

val map_interactions :
  Graph.t -> (Graph.vertex -> Graph.vertex -> Interaction.t -> Interaction.t) -> Graph.t
(** Rewrites every interaction payload, preserving the edge structure
    (and isolated vertices). *)

val duplicate_timestamps : Tin_util.Prng.t -> Graph.t -> Graph.t
val zero_quantities : Tin_util.Prng.t -> Graph.t -> Graph.t
val denormal_quantities : Tin_util.Prng.t -> Graph.t -> Graph.t
val huge_quantities : Tin_util.Prng.t -> Graph.t -> Graph.t

val mutations : (string * (Tin_util.Prng.t -> Graph.t -> Graph.t)) list
(** All mutation operators with their report names. *)

val self_loop_rejected : Graph.t -> bool
(** Self-loops are unrepresentable by contract; this asserts the
    constructor rejects one (so they can never inflate a flow). *)

val families :
  (string * (Tin_util.Prng.t -> Graph.t * Graph.vertex * Graph.vertex)) list

val case : Tin_util.Prng.t -> case
(** One fuzz case: random family, then 0–2 random mutations. *)
