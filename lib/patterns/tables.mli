(** Precomputed path tables (Section 5.2).

    The preprocessing-based (PB) pattern-search approach materialises
    small path shapes once, together with the flow that the greedy
    scan delivers into the path's final vertex — by Lemma 3 the total
    of the path's greedy arrival sequence, which is all that PB search
    and the hybrid graph-browsing lookups read.

    Three tables mirror the paper's setup: 2-hop cycles [a→b→a] and
    3-hop cycles [a→b→c→a] for every dataset, and 2-hop chains
    [a→b→c] where precomputation cost allows (the paper built chains
    only for Prosper Loans).

    {b Layout.}  A table is three flat columns.  Row [r]'s path
    vertices ({!Compact} ids, start vertex first; for cycles the final
    return to the start is implicit) are [verts.(r * width + i)] for
    [i < width], with [width] 2 or 3, and its flow is [flows.(r)], a
    [floatarray].  Rows are in lexicographic vertex order, so the rows
    of start vertex [v] are the range [offsets.(v) .. offsets.(v + 1) - 1].
    A row costs [width + 1] words.

    {b Build.}  Two passes over the start vertices ("anchors"), each
    sharded across domains with {!Tin_core.Batch.map_reduce}: the first
    counts every anchor's rows, which fixes [offsets]; the columns are
    then allocated once at their exact size, and the second pass has
    every anchor enumerate its paths again and write only its own
    slice.  The result is identical for every job count. *)

type t

val n_rows : t -> int

val width : t -> int
(** Vertices per row: 2 for {!cycles2}, 3 for {!cycles3} and {!chains2}. *)

val vert : t -> int -> int -> Compact.vertex
(** [vert t r i] is vertex [i] ([0 ≤ i < width t]) of row [r]. *)

val flow : t -> int -> float
(** The flow of row [r]. *)

val iter_start : t -> Compact.vertex -> (int -> unit) -> unit
(** [iter_start t v f] calls [f r] on every row [r] whose path starts
    at [v], in ascending order. *)

val starts : t -> Compact.vertex list
(** Distinct start vertices, ascending. *)

val cycles2 : ?jobs:int -> Compact.t -> t
(** All 2-hop cycles [a→b→a]; rows [(a, b)].  [jobs] (default 1)
    shards both passes across OCaml domains. *)

val cycles3 : ?jobs:int -> Compact.t -> t
(** All 3-hop cycles [a→b→c→a] with [b ≠ c]; rows [(a, b, c)].
    [jobs] as in {!cycles2}. *)

val chains2 : ?jobs:int -> Compact.t -> t
(** All 2-hop chains [a→b→c] over distinct vertices; rows
    [(a, b, c)].  [jobs] as in {!cycles2}. *)

val find : t -> Compact.vertex array -> int option
(** The row with exactly the given path vertices (start vertex
    first): a binary search over the start vertex's rows.  Used by the
    hybrid graph-browsing mode to close chain/cycle sub-joins against
    precomputed rows. *)

val splice : ?ids:int array -> n_vertices:int -> t -> int array -> floatarray -> t
(** [splice ?ids ~n_vertices t verts flows]: [t]'s rows renamed
    through the increasing [ids] (default the identity), with the
    sorted rows [verts]/[flows] put in, each replacing any row with the
    same vertices.  Fresh columns; kept rows are copied in runs. *)

val chain_flow : Compact.t -> Compact.edge_id array -> float
(** [chain_flow net edges] is the flow of the greedy reduction
    (Lemma 3) over a chain of edges.  The chain is positional — hop
    [p → p + 1] carries edge [edges.(p)]'s interactions, whatever the
    edges' vertices — and the result is bit for bit
    [Interaction.total_qty (Greedy.arrivals_at_sink chain ~source:0 ~sink:k)]
    (property-tested).  Each edge's run in [Compact] is already in
    (time, qty) order, so the scan merges the runs instead of sorting;
    it allocates a constant number of words whatever the run lengths.
    The table rows are computed with it. *)

val chain_flows : Compact.t -> hops:int -> Compact.edge_id array -> floatarray
(** [chain_flows net ~hops edges] is {!chain_flow} of every chain
    [edges.(r * hops) .. edges.(r * hops + hops - 1)], with one scan
    state for all of them. *)
