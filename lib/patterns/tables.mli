(** Precomputed path tables (Section 5.2).

    The preprocessing-based (PB) pattern-search approach materialises
    small path shapes once, together with the interaction sequence that
    the greedy scan delivers into the path's final vertex — which, by
    Lemma 3, fully determines the path's flow contribution at any time
    and can be composed by further greedy runs.

    Three tables mirror the paper's setup: 2-hop cycles [a→b→a] and
    3-hop cycles [a→b→c→a] for every dataset, and 2-hop chains
    [a→b→c] where precomputation cost allows (the paper built chains
    only for Prosper Loans).  Rows are sorted by start vertex (a
    {!Compact} id), with an offset index for merge-joins. *)

type row = {
  verts : Compact.vertex array;
      (** The path vertices, starting vertex first.  For cycles the
          final return to the start is implicit. *)
  arrivals : Interaction.t list;
      (** Greedy arrival sequence at the path's end (at the start
          vertex's sink half, for cycles). *)
  flow : float;  (** Total of [arrivals] — the path's flow. *)
}

type t

val rows : t -> row array
(** All rows, sorted by start vertex (then lexicographically). *)

val n_rows : t -> int

val for_start : t -> Compact.vertex -> row array
(** Rows whose path starts at the given vertex (shared subarray copy). *)

val iter_start : t -> Compact.vertex -> (row -> unit) -> unit

val starts : t -> Compact.vertex list
(** Distinct start vertices, ascending. *)

val cycles2 : ?jobs:int -> Compact.t -> t
(** All 2-hop cycles [a→b→a]; row vertices are [[|a; b|]].  [jobs]
    (default 1) shards the start-vertex scan across OCaml domains;
    the resulting table is identical for every job count. *)

val cycles3 : ?jobs:int -> Compact.t -> t
(** All 3-hop cycles [a→b→c→a] with [b ≠ c]; rows [[|a; b; c|]].
    [jobs] as in {!cycles2}. *)

val chains2 : ?jobs:int -> Compact.t -> t
(** All 2-hop chains [a→b→c] over distinct vertices; rows
    [[|a; b; c|]].  [jobs] as in {!cycles2}. *)

val find : t -> Compact.vertex array -> row option
(** Binary search for the row with exactly the given path vertices
    (start vertex first) — O(log) in the start vertex's row count.
    Used by the hybrid graph-browsing mode to close chain/cycle
    sub-joins against precomputed rows. *)

val memory_rows : t -> int
(** Total interactions stored (precomputation footprint measure). *)

val of_rows : n_vertices:int -> row list -> t
(** Table from an explicit row list (sorted internally); used by the
    {!Delta} maintenance pass.  Rows must reference vertices below
    [n_vertices]. *)

val path_row : Compact.t -> Compact.vertex array -> Compact.edge_id list -> row
(** Builds one row: runs the greedy reduction over the given edge
    chain.  Exposed for {!Delta}. *)

val chain_arrivals : Compact.t -> Compact.edge_id list -> Interaction.t list
(** Arrival sequence of the greedy reduction over the given edge chain
    — [path_row] without the row wrapper.  Reads the interaction
    columns directly (no per-candidate list building); exposed for the
    counting catalog. *)
