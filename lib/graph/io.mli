(** Loading and saving interaction networks.

    Two on-disk formats are understood:

    - the four-column CSV used by the paper's artifact
      ([src,dst,time,qty], one interaction per line; empty and [#]
      lines ignored; an optional [src,dst,time,qty] header is skipped);
    - the versioned binary snapshot of {!Snapshot} ([.tinb]),
      recognised by its magic bytes regardless of extension.

    The format-agnostic loaders ({!load}, {!load_graph},
    {!load_compact}) sniff the first four bytes and dispatch; the
    [_csv_] variants parse CSV only.  Both formats compile to the same
    {!Compact.t} — same vertex ids, same answers.  [tinflow convert]
    produces snapshots from CSV and vice versa.

    The CSV parser is strict: every malformed row is reported with
    file, line and column; NaN, infinite and negative timestamps or
    quantities are rejected as data corruption (Definition 1 transfers
    non-negative finite quantities).  Snapshot loading is equally
    strict (checksum, version, structural invariants) — see
    {!Snapshot}.  Use the [_result] variants for recoverable error
    handling; the plain loaders raise {!Parse_error}. *)

type error = {
  file : string;  (** [""] when parsing an anonymous channel. *)
  line : int;  (** 1-based line number; [0] for whole-file (snapshot) errors. *)
  column : int;  (** 1-based character offset of the offending field. *)
  message : string;
}

exception Parse_error of error

val error_to_string : error -> string
(** ["file:line:column: message"] — the GNU diagnostic format — or
    ["file: message"] when [line = 0] (snapshot errors have no textual
    position). *)

val parse_channel :
  ?file:string -> in_channel -> ((int * int * Interaction.t) list, error) result
(** Parses a channel.  Self-loops are skipped (with a [Logs] warning
    counter), matching how the paper cleans its inputs.  [file] is only
    used in diagnostics. *)

val load_csv_graph_result : string -> (Graph.t, error) result

val load_csv_graph : string -> Graph.t
(** @raise Parse_error on malformed input. *)

val load_result : string -> (Compact.t, error) result
(** Format-agnostic load of a network for pattern search and
    extraction: {!load_compact_result}, except that a snapshot
    containing self-loops is an error (the CSV parser skips them, and
    the pattern layer and {!Compact.edges_to_graph} assume none). *)

val load_graph_result : string -> (Graph.t, error) result
(** Format-agnostic load into a persistent graph.  Snapshots containing
    self-loops (which {!Graph.t} cannot represent) are reported as
    errors, as in {!load_result}. *)

val load_compact_result : string -> (Compact.t, error) result
(** Format-agnostic load into the flat substrate — the cheapest target
    for both formats (snapshots deserialise straight into it; CSV
    entries are compiled without building a persistent graph).
    Self-loop snapshots load unchanged, so [tinflow convert]
    round-trips them. *)

val load : string -> Compact.t
(** @raise Parse_error on malformed input (either format). *)

val load_graph : string -> Graph.t
(** @raise Parse_error on malformed input (either format). *)

val load_compact : string -> Compact.t
(** @raise Parse_error on malformed input (either format). *)

val save_csv : string -> Graph.t -> unit
(** Writes [src,dst,time,qty] lines, header included, edges in
    deterministic order. *)

val to_dot :
  ?graph_name:string -> ?source:int -> ?sink:int -> Graph.t -> string
(** GraphViz rendering of a (small) network: each edge is annotated
    with its interaction sequence; [source]/[sink] are highlighted.
    Useful to eyeball extracted subgraphs like the paper's Figure 10. *)
