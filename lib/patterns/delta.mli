(** Incremental maintenance of the precomputed path tables.

    The paper assumes a static (historical) network and notes in a
    footnote that "for the case of graphs which grow over time, we can
    apply delta-updates to the precomputed data, to consider
    interactions that enter G after the initial precomputation".  This
    module implements that: given a network with precomputed tables
    and a batch of new interactions, it rebuilds only the table rows
    whose paths touch a modified edge — plus rows for paths that the
    new edges create — instead of recomputing every table from
    scratch.

    A row [(a, b)] or [(a, b, c)] depends only on the interaction
    sequences of its own edges (the greedy reduction of Lemma 3), so a
    row is stale exactly when one of those directed edges received new
    interactions.  The correctness property ([apply] ≡ full
    {!Catalog.precompute} on the grown network) is covered by the test
    suite, and the speed difference by the [ablation] benchmark. *)

type t = private {
  net : Compact.t;
  tables : Catalog.tables;
  rows_recomputed : int;  (** Across all [apply] calls so far. *)
}

val create : ?with_chains:bool -> Compact.t -> t
(** Initial precomputation (delegates to {!Catalog.precompute}). *)

val apply : t -> additions:(int * int * Interaction.t) list -> t
(** [apply t ~additions] returns the state for the grown network.
    Additions are [(src_label, dst_label, interaction)] entries in the
    network's original label space, in any order and with any number
    per directed pair (the shape of {!Compact.of_entries}); new
    vertices are allowed, self-loops are not.  The input state is
    unchanged. *)
