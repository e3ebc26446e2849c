(* Ablation benchmarks for the design choices DESIGN.md calls out:

   A. Static solver on the time-expanded network: Edmonds-Karp vs
      Dinic vs push-relabel (the PTIME route of Section 4.2.1), which
      must agree on every problem timed.
   B. Path-table maintenance: full precomputation vs delta updates
      (the paper's footnote-2 suggestion) for a batch of fresh
      interactions. *)

module Extract = Tin_datasets.Extract
module TE = Tin_maxflow.Time_expand
module Table = Tin_util.Table
module Timer = Tin_util.Timer
module Stats = Tin_util.Stats
module Prng = Tin_util.Prng
module Fcmp = Tin_util.Fcmp

let static_solvers =
  [ ("Edmonds-Karp", `Edmonds_karp); ("Dinic", `Dinic); ("Push-relabel", `Push_relabel) ]

(* Times every solver on each problem and fails on the first problem
   where they disagree beyond the flow tolerance. *)
let static_solver_ablation datasets =
  let rows =
    List.map
      (fun d ->
        let name = d.Workload.spec.Tin_datasets.Spec.name in
        (* The 20 largest problems per dataset. *)
        let problems =
          List.sort
            (fun (a : Extract.problem) b ->
              compare b.Extract.n_interactions a.Extract.n_interactions)
            d.Workload.problems
          |> List.filteri (fun i _ -> i < 20)
        in
        let times =
          List.map
            (fun (p : Extract.problem) ->
              let runs =
                List.map
                  (fun (_, algo) ->
                    Timer.time_ms (fun () ->
                        TE.max_flow ~algo p.Extract.graph ~source:p.Extract.source
                          ~sink:p.Extract.sink))
                  static_solvers
              in
              let reference = fst (List.hd runs) in
              List.iter2
                (fun (solver, _) (v, _) ->
                  if not (Fcmp.approx_eq reference v) then
                    failwith
                      (Printf.sprintf "ablation A: %s gives %.17g, Edmonds-Karp %.17g (%s, seed %d)"
                         solver v reference name p.Extract.seed))
                static_solvers runs;
              List.map snd runs)
            problems
        in
        name
        :: List.mapi
             (fun k _ -> Table.fmt_ms (Stats.mean (List.map (fun ms -> List.nth ms k) times)))
             static_solvers)
      datasets
  in
  Table.print
    ~title:"Ablation A: static max-flow solver on the time-expanded network (20 largest subgraphs)"
    ~header:("Dataset" :: List.map fst static_solvers)
    rows;
  print_newline ()

let delta_ablation datasets =
  let rng = Prng.create ~seed:7777 in
  let rows =
    List.map
      (fun d ->
        let net = d.Workload.net in
        let n = Compact.n_vertices net in
        let additions =
          List.init 100 (fun _ ->
              let s = Prng.int rng n and t = Prng.int rng n in
              let t = if t = s then (t + 1) mod n else t in
              ( Compact.label net s,
                Compact.label net t,
                Interaction.make
                  ~time:(Prng.float rng 1_000_000.0)
                  ~qty:(Prng.log_normal rng ~mu:1.0 ~sigma:1.0) ))
        in
        let state, init_ms =
          Timer.time_ms (fun () -> Tin_patterns.Delta.create net)
        in
        let updated, delta_ms =
          Timer.time_ms (fun () -> Tin_patterns.Delta.apply state ~additions)
        in
        let _, full_ms =
          Timer.time_ms (fun () -> Tin_patterns.Catalog.precompute updated.Tin_patterns.Delta.net)
        in
        [
          d.Workload.spec.Tin_datasets.Spec.name;
          Table.fmt_ms init_ms;
          Table.fmt_ms full_ms;
          Table.fmt_ms delta_ms;
          string_of_int updated.Tin_patterns.Delta.rows_recomputed;
          Printf.sprintf "%.0fx" (full_ms /. Float.max 1e-9 delta_ms);
        ])
      datasets
  in
  Table.print
    ~title:"Ablation B: path tables, full rebuild vs delta update (batch of 100 new interactions)"
    ~header:
      [ "Dataset"; "Initial build"; "Full rebuild"; "Delta update"; "rows touched"; "speedup" ]
    rows;
  print_newline ()

let run datasets =
  static_solver_ablation datasets;
  delta_ablation datasets
