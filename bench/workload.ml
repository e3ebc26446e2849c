(* Shared benchmark workload: the three synthetic datasets and their
   extracted flow subgraphs, generated once per process.

   Scale knobs: [quick] shrinks everything (CI smoke); [full] is the
   default reproduction scale. *)

module Spec = Tin_datasets.Spec
module Generator = Tin_datasets.Generator
module Extract = Tin_datasets.Extract

type scale = {
  factor : float;
  max_interactions : int;
  max_subgraphs : int;
  gb_limit : int;  (** Instance cap for table-driven patterns. *)
  lp_pattern_limit : int;
      (** Instance cap for the LP-per-instance patterns (P4/P6) — the
          paper likewise truncated those at 3000 instances. *)
  gb_budget_ms : float;
      (** Wall-clock budget per graph-browsing run; runs that exceed
          it are extrapolated like the paper's "(est.)" entries. *)
  sweep_budget_ms : float option;
      (** Wall-clock budget per graph-browsing run of the jobs sweep
          and its counter pass ([BENCH_pattern.json]).  [None] at quick
          scale: every quick search ends at its instance cap, and the
          document's counts are gated for equality, so they must not
          depend on how fast the host is. *)
}

let full =
  {
    factor = 1.0;
    max_interactions = 1000;
    max_subgraphs = 400;
    gb_limit = 300_000;
    lp_pattern_limit = 3000;
    gb_budget_ms = 20_000.0;
    sweep_budget_ms = Some 10_000.0;
  }

let quick =
  {
    factor = 0.1;
    max_interactions = 300;
    max_subgraphs = 60;
    gb_limit = 20_000;
    lp_pattern_limit = 500;
    gb_budget_ms = 3_000.0;
    sweep_budget_ms = None;
  }

type dataset = {
  spec : Spec.t;
  net : Compact.t;
  problems : Extract.problem list;
  table_id : int; (* paper table number for flow experiments *)
  pattern_table_id : int;
}

let seed_of_spec (spec : Spec.t) =
  (* Stable per-dataset seeds. *)
  match spec.Spec.name with
  | "Bitcoin" -> 101
  | "CTU-13" -> 102
  | "Prosper Loans" -> 103
  | _ -> 999

let load scale =
  let make (spec : Spec.t) table_id pattern_table_id =
    let spec = Spec.scaled ~factor:scale.factor spec in
    let net = Generator.generate ~seed:(seed_of_spec spec) spec in
    let problems =
      Extract.extract ~max_interactions:scale.max_interactions
        ~max_subgraphs:scale.max_subgraphs net
    in
    { spec; net; problems; table_id; pattern_table_id }
  in
  [
    make Spec.bitcoin 6 9;
    make Spec.ctu13 7 10;
    make Spec.prosper 8 11;
  ]
