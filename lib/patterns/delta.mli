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
    sequences of its own edges (the greedy reduction of Lemma 3).  The
    net is cumulative: no edge is ever removed, so every old row stays
    a path and a row is stale exactly when it runs through a touched
    pair — the rows that a walk around the touched pairs lists.
    Windowed tables would break this invariant.  An [apply] costs a
    sort of the batch and a linear merge of it into the substrate
    ({!Compact.merge}), the reductions of the rows through touched
    pairs, and a copy of the kept rows.  [apply] ≡ full
    {!Catalog.precompute} on the grown network, row for row, is
    property-tested; the [ablation] benchmark times the two. *)

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
