(** Differential correctness oracle for the flow pipeline.

    Given any TIN and a source/sink pair, {!check} runs every
    independent way this codebase can compute the flow — the greedy
    scan, the LP formulation (sparse revised simplex), Dinic's static
    maximum flow over the time-expanded reduction, and the accelerated
    pipeline with its preprocessing stages toggled on and off — and
    tests the full invariant lattice relating them.  The LP and Dinic
    solve the two formulations of Section 4.2.1 with no shared code,
    so each is the other's independent check:

    - all maximum-flow oracles agree pairwise within the shared
      tolerance policy ({!Tin_util.Fcmp.policy}[.flow_eps]);
    - the greedy flow is a lower bound on every maximum-flow oracle;
    - a graph that passes the solubility test has greedy = max;
    - preprocessing (Algorithm 1) and chain simplification
      (Algorithm 2) are value-preserving on DAGs;
    - every returned solution vector is a feasible temporal flow:
      per-interaction capacity residuals in [0, q], per-vertex temporal
      conservation (cumulative out(≤ τ) ≤ cumulative in(< τ)), and the
      quantity deposited at the sink equals the reported value;
    - the flow decomposition ({!Tin_core.Decompose}) reassembles the
      max-flow value from its peeled paths up to eps-sized crumbs per
      path, every path is a temporal source→sink route, and no
      individual interaction carries more than its quantity;
    - the provenance engine ({!Tin_core.Provenance}) in source-rooted
      mode matches the greedy scan bit for bit on per-vertex totals
      (all policies), conserves mass per vertex, attributes only
      origins the source sent — validated against the fixed scan-order
      interaction numbering shared with {!Tin_core.Decompose} — and
      never exceeds an origin interaction's quantity;
    - an oracle raising an exception is itself a discrepancy.

    {!fuzz} drives {!check} over randomized instances ({!Gen}), and
    {!shrink} minimizes any failing instance before it is reported, so
    every discrepancy comes with a small reproducing TIN (dumped as a
    CSV that [tinflow] can reload). *)

type oracle = {
  name : string;
  run : Graph.t -> source:Graph.vertex -> sink:Graph.vertex -> float;
}
(** An extra flow computation to check against the built-in ones
    (expected to compute the {e maximum} flow). *)

val perturbed : ?delta:float -> unit -> oracle
(** A deliberately wrong oracle — time-expanded Dinic plus [delta]
    (default [0.5]).  Used to demonstrate that the harness catches and
    shrinks an injected solver bug. *)

type discrepancy = { check : string; detail : string }
(** One violated invariant: a stable check name (e.g.
    ["max-flow-disagreement"], ["greedy-exceeds-max"],
    ["lp:sparse:conservation"]) and a human-readable detail line. *)

type outcome = {
  values : (string * float) list;
      (** Flow value per oracle that completed, in run order (the
          greedy value is listed last). *)
  discrepancies : discrepancy list;  (** Empty iff all invariants held. *)
  obs : (string * (string * int) list) list;
      (** Per-oracle observability counter deltas (e.g. how many LP
          pivots a solver oracle spent on this instance), snapshotted
          around each oracle run.  Populated only while
          {!Tin_obs.Obs} tracking is enabled; counterexample CSV dumps
          include these as [# obs] comment lines. *)
}

val pp_discrepancy : Format.formatter -> discrepancy -> unit

val oracle_names : string list
(** Names of the 9 built-in oracles, for reporting: [greedy],
    [lp:sparse], [te:dinic], [pipeline:pre], [pipeline:presim],
    [decomp] and the three [prov:*] policies. *)

val check :
  ?policy:Tin_util.Fcmp.policy ->
  ?extra:oracle list ->
  Graph.t ->
  source:Graph.vertex ->
  sink:Graph.vertex ->
  outcome
(** Runs every oracle and the full invariant lattice on one instance.
    [policy] supplies the comparison tolerances (default
    {!Tin_util.Fcmp.default_policy}): values are compared at
    [flow_eps], and [pivot_eps] is threaded to the LP solver.
    [extra] oracles participate in the pairwise comparisons. *)

val fails :
  ?policy:Tin_util.Fcmp.policy ->
  ?extra:oracle list ->
  Graph.t ->
  source:Graph.vertex ->
  sink:Graph.vertex ->
  bool
(** [check] has at least one discrepancy. *)

val shrink :
  ?policy:Tin_util.Fcmp.policy ->
  ?extra:oracle list ->
  Graph.t ->
  source:Graph.vertex ->
  sink:Graph.vertex ->
  Graph.t
(** Greedy delta-debugging of a failing instance: repeatedly removes a
    vertex, an edge, or a single interaction while the instance keeps
    failing, to a local fixpoint.  Source and sink are never removed.
    Returns the input unchanged if it does not fail. *)

type failure = {
  case_index : int;  (** 1-based index within the fuzz run. *)
  case : Gen.case;  (** The original generated instance. *)
  shrunk : Graph.t;  (** Minimized reproducing TIN. *)
  outcome : outcome;  (** Outcome on the {e shrunk} instance. *)
  csv : string option;  (** Dump path, when [dump_dir] was given. *)
}

type fuzz_report = { cases_run : int; failures : failure list }

val dump_csv :
  string -> Graph.t -> source:Graph.vertex -> sink:Graph.vertex -> outcome -> unit
(** Writes the instance with {!Io.save_csv}, then appends source, sink
    and the discrepancy list as [#] comment lines after the rows (the
    CSV parser skips [#] lines wherever they stand), so [tinflow] loads
    the dump as it is. *)

val fuzz :
  ?policy:Tin_util.Fcmp.policy ->
  ?extra:oracle list ->
  ?dump_dir:string ->
  ?progress:(int -> int -> unit) ->
  seed:int ->
  cases:int ->
  unit ->
  fuzz_report
(** Generates [cases] instances from [seed] ({!Gen.case}), checks each,
    and shrinks every failure.  With [dump_dir], each minimized
    counterexample is written there as
    [counterexample-seed<seed>-case<i>.csv].  [progress] is called
    after every case with (cases done, failures so far). *)
