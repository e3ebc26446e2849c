(** Benchmark-regression gate: structural diff of two machine-readable
    benchmark documents ([BENCH_flow.json] / [BENCH_pattern.json],
    or a [tinflow.obs.report/v1] trace report) with a relative noise
    tolerance for timings.

    Both documents are flattened to [path -> number] maps.  Array
    elements are keyed by their identifying field ([name], [class],
    [jobs], [pattern] or [tid]) when present — so reordering a
    dataset, adding a job count, or renumbering a domain does not
    shift every other metric — and by index otherwise.  Each path's
    class follows from its name alone.  Wall-clock, footprint and
    balance paths ([..._ms], [..._secs], [...wall...], [...rss...],
    [...imbalance...]) are lower-better, and throughput paths
    ([..._per_s], [...speedup...], [...utilization...]) higher-better:
    these are judged against the tolerance.  Every other path is
    exact (instance counts, pivots, spills, rebuilds, rows): it
    passes only when the two values are equal, whatever the
    tolerance, and a baseline exact path missing from the current
    document drifts too.  Facts of the machine or of the schedule are
    skipped: [domains_available], a domain's [tid], and an obs
    report's per-domain [domains.<tid>.spans]. *)

type status =
  | Ok_within  (** within tolerance *)
  | Improved  (** beyond tolerance, in the good direction *)
  | Regressed  (** beyond tolerance, in the bad direction *)
  | Drifted  (** an exact path that differs, or is missing from the current document *)
  | Added  (** present only in the current document *)
  | Removed  (** a directional path present only in the baseline document *)

type row = {
  path : string;  (** dotted metric path, e.g. [datasets.Bitcoin.classes.C.solver_avg_ms.sparse] *)
  baseline : float option;
  current : float option;
  delta_pct : float option;  (** [100 * (current - baseline) / |baseline|]; [None] unless both exist *)
  status : status;
}

val flatten : Json.t -> (string * float) list
(** Numeric leaves of a document with their dotted paths, in document
    order.  Booleans, strings and nulls are skipped. *)

val compare_docs : ?tolerance_pct:float -> baseline:Json.t -> current:Json.t -> unit -> row list
(** One row per metric path in either document, baseline order first.
    [tolerance_pct] defaults to 15. *)

val header_mismatch : baseline:Json.t -> current:Json.t -> string option
(** [Some reason] naming both values when the documents' ["benchmark"]
    or ["scale"] header strings differ, one being absent included: such
    documents measure different things and must not be diffed.  [None]
    when both fields agree or neither document has them (a
    [tinflow.obs.report/v1] report). *)

val regressed : row list -> row list
(** The rows with [status = Regressed].  {!Added} / {!Removed} rows are
    informational. *)

val drifted : row list -> row list
(** The rows with [status = Drifted]. *)

val status_name : status -> string

val render_table : ?title:string -> row list -> string
(** The per-metric comparison table ({!Table.render} layout), ready to
    print; rows within tolerance (equal, for exact paths) are
    summarized, deviations listed. *)
