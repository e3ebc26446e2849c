(** Loading and saving interaction networks.

    Two on-disk formats are understood:

    - the four-column CSV used by the paper's artifact
      ([src,dst,time,qty], one interaction per line; empty and [#]
      lines ignored wherever they stand; an optional [src,dst,time,qty]
      header on the first line is skipped);
    - the versioned binary snapshot of {!Snapshot} ([.tinb]),
      recognised by its magic bytes regardless of extension.

    Every loader reads the file into a {!Compact.t}: a snapshot
    deserialises straight into it, and parsed CSV rows go through
    {!Compact.of_entries}.  Both formats therefore give the same
    vertex ids and the same answers.  {!load_graph} is
    {!Compact.to_graph} of {!load}; there is no second route from a
    file to a {!Graph.t}.  [tinflow convert] produces snapshots from
    CSV and vice versa.

    The CSV parser is strict: every malformed row is reported with
    file, line and column; NaN, infinite and negative timestamps or
    quantities are rejected as data corruption (Definition 1 transfers
    non-negative finite quantities).  Self-loop rows are skipped (with
    a [Logs] warning), matching how the paper cleans its inputs.
    Snapshot loading is equally strict (checksum, version, structural
    invariants) — see {!Snapshot}.  Both report through the one
    {!error} type: {!load_result} returns it, the other loaders raise
    {!Parse_error}.  A missing or unreadable file is an I/O failure,
    not malformed input: every loader raises [Sys_error] for it. *)

type error = {
  file : string;
  line : int;  (** 1-based line number; [0] for whole-file (snapshot) errors. *)
  column : int;  (** 1-based character offset of the offending field. *)
  message : string;
}

exception Parse_error of error

val error_to_string : error -> string
(** ["file:line:column: message"] — the GNU diagnostic format — or
    ["file: message"] when [line = 0] (snapshot errors have no textual
    position). *)

val load_result : string -> (Compact.t, error) result
(** Format-agnostic load of a network.  A snapshot containing
    self-loops is an error: the CSV parser skips them, and
    {!Compact.to_graph}, the pattern layer and extraction assume
    none. *)

val load : string -> Compact.t
(** {!load_result}.  @raise Parse_error on malformed input (either
    format). *)

val load_compact : string -> Compact.t
(** Like {!load}, except that a self-loop snapshot loads unchanged, so
    [tinflow convert] round-trips it.
    @raise Parse_error on malformed input (either format). *)

val load_graph : string -> Graph.t
(** [Compact.to_graph (load path)]: the persistent graph the flow
    algorithms run on.
    @raise Parse_error on malformed input (either format), a self-loop
    snapshot included. *)

val save_csv : string -> Graph.t -> unit
(** Writes [src,dst,time,qty] lines, header included, edges in
    deterministic order. *)

val to_dot :
  ?graph_name:string -> ?source:int -> ?sink:int -> Graph.t -> string
(** GraphViz rendering of a (small) network: each edge is annotated
    with its interaction sequence; [source]/[sink] are highlighted.
    Useful to eyeball extracted subgraphs like the paper's Figure 10. *)
