(** The paper's four flow-computation methods, as compared in
    Section 6.2 (Tables 6–8, Figure 11), plus the time-expanded static
    reduction as an independent oracle.

    - [Greedy]: the linear scan of Section 4.1 — fastest, but computes
      the greedy flow, not necessarily the maximum.
    - [Lp]: direct LP formulation of the maximum flow (baseline).
    - [Pre]: greedy-solubility test, then preprocessing (Algorithm 1),
      then re-test, then LP only if still needed.
    - [Pre_sim]: [Pre] plus graph simplification (Algorithm 2) before
      the LP — the paper's complete solution.
    - [Time_expanded]: Dinic on the time-expanded static network. *)

type method_ = Greedy | Lp | Pre | Pre_sim | Time_expanded

val method_name : method_ -> string

(** Difficulty classes of Section 6.2: [A] = greedy-soluble as given;
    [B] = greedy-soluble after preprocessing (including the degenerate
    zero-flow case); [C] = needs the LP even after preprocessing. *)
type cls = A | B | C

val cls_name : cls -> string

(** Which stage of the accelerated pipeline produced the value — the
    observability hook the differential verifier uses to confirm that
    every accelerated path is exercised and value-preserving. *)
type stage =
  | Soluble_as_given  (** Greedy sufficed on the input (Lemma 2). *)
  | Cyclic_fallback  (** Not a DAG: time-expanded Dinic. *)
  | Zero_after_preprocess  (** Preprocessing proved zero flow. *)
  | Soluble_after_preprocess  (** Greedy sufficed after Algorithm 1. *)
  | Soluble_after_simplify  (** Greedy sufficed after Algorithm 2. *)
  | Lp_solve  (** Full LP on the reduced graph. *)

val stage_name : stage -> string

type report = {
  value : float;  (** The computed flow. *)
  cls : cls;
  stage : stage;  (** Which pipeline stage computed [value]. *)
  lp_vars_before : int;
      (** LP variables of the direct formulation (problem size). *)
  lp_vars_after : int;
      (** LP variables actually solved after reduction (0 when greedy
          sufficed). *)
}

exception Solver_failure of string
(** Raised when the LP solver reports unbounded/iteration-limit —
    does not happen on well-formed finite problems. *)

val compute : method_ -> Graph.t -> source:Graph.vertex -> sink:Graph.vertex -> float
(** Flow value from [source] to [sink] by the given method.  For
    [Greedy] this is the greedy flow; for all other methods the
    maximum flow.  On cyclic graphs [Pre]/[Pre_sim] skip the DAG-only
    accelerators and fall back to the time-expanded reduction (which,
    like [Lp] and [Time_expanded], is structure-agnostic).  The LP
    stages of [Lp], [Pre] and [Pre_sim] run the sparse revised simplex
    ({!Lp_flow.solve}).
    @raise Solver_failure on solver breakdown. *)

val max_flow : Graph.t -> source:Graph.vertex -> sink:Graph.vertex -> float
(** Maximum flow by the cheapest exact route: the greedy scan when
    Lemma 2's test ({!Solubility.soluble}) holds — the same stage, and
    so the same bits, as [compute Pre_sim] — and Dinic on the
    time-expanded network ([Time_expanded]) otherwise.  Neither needs a
    DAG, and no LP is built; pattern-instance flows take this route.
    It records a ["pipeline.greedy"] or ["pipeline.time_expand"] span
    but no [pipeline.stage.*] count, which belongs to the [Pre_sim]
    pipeline. *)

val classify : Graph.t -> source:Graph.vertex -> sink:Graph.vertex -> cls
(** Difficulty class of a DAG (used to bucket benchmark subgraphs). *)

val report :
  ?solver:[ `Auto ] -> Graph.t -> source:Graph.vertex -> sink:Graph.vertex -> report
(** Full [Pre_sim] run with classification, stage and problem-size
    accounting.  [solver] is accepted and ignored, as in
    {!Lp_flow.solve}: the end-to-end benchmark under [perfbench/] still
    passes [~solver:`Auto]. *)
