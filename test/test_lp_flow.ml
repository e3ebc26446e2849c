(* The LP formulation of maximum flow (Section 4.2.1). *)

open Tin_testlib
module Lp_flow = Tin_core.Lp_flow
module Problem = Tin_lp.Problem
module SM = Tin_lp.Solver_metrics
module VGen = Tin_verify.Gen
module Prng = Tin_util.Prng
module P = Paper_examples

let solve g ~source ~sink =
  match Lp_flow.solve g ~source ~sink with
  | Ok v -> v
  | Error _ -> Alcotest.fail "LP failed"

let test_fig3 () = Check.check_flow "figure 3" 5.0 (solve P.fig3 ~source:P.s ~sink:P.t)
let test_fig1a () = Check.check_flow "figure 1(a)" 5.0 (solve P.fig1a ~source:P.s ~sink:P.t)

let test_fig5a_chain () =
  Check.check_flow "chain: LP = greedy" 7.0 (solve P.fig5a ~source:P.s ~sink:P.t)

let test_variable_count () =
  (* One variable per non-source interaction. *)
  Alcotest.(check int) "fig3" 3 (Lp_flow.n_variables P.fig3 ~source:P.s);
  Alcotest.(check int) "fig7" 9 (Lp_flow.n_variables P.fig7 ~source:P.s);
  let lp = Lp_flow.build P.fig3 ~source:P.s ~sink:P.t in
  Alcotest.(check int) "built vars" 3 lp.Lp_flow.n_vars;
  Alcotest.(check bool) "has rows" true (lp.Lp_flow.n_rows > 0)

let test_source_to_sink_direct () =
  (* Direct source→sink interactions contribute as constants. *)
  let g = Graph.of_edges [ (0, 1, [ (1.0, 5.0); (2.0, 3.0) ]) ] in
  Check.check_flow "constant objective" 8.0 (solve g ~source:0 ~sink:1);
  let lp = Lp_flow.build g ~source:0 ~sink:1 in
  Alcotest.(check int) "no variables" 0 lp.Lp_flow.n_vars;
  Alcotest.(check (float 1e-9)) "fixed" 8.0 lp.Lp_flow.fixed_into_sink

let test_strict_time () =
  let g = Graph.of_edges [ (0, 1, [ (2.0, 5.0) ]); (1, 2, [ (2.0, 5.0) ]) ] in
  Check.check_flow "same instant blocked" 0.0 (solve g ~source:0 ~sink:2)

let test_tie_no_double_spend () =
  (* Cumulative constraints: two same-instant outgoing interactions
     cannot both spend the same buffered 5 even in the LP relaxation. *)
  let g =
    Graph.of_edges
      [
        (0, 1, [ (1.0, 5.0) ]);
        (1, 2, [ (2.0, 5.0) ]);
        (1, 3, [ (2.0, 5.0) ]);
        (2, 4, [ (3.0, 10.0) ]);
        (3, 4, [ (3.0, 10.0) ]);
      ]
  in
  Check.check_flow "no double spend" 5.0 (solve g ~source:0 ~sink:4)

let test_reservation_beats_greedy () =
  (* The defining example: LP must beat the greedy value. *)
  let greedy = Tin_core.Greedy.flow P.fig3 ~source:P.s ~sink:P.t in
  let lp = solve P.fig3 ~source:P.s ~sink:P.t in
  Alcotest.(check bool) "lp > greedy here" true (lp > greedy +. 1.0)

let test_cyclic_graph_supported () =
  (* The LP is temporal, not structural: cycles are fine. *)
  let g =
    Graph.of_edges
      [
        (0, 1, [ (1.0, 4.0) ]);
        (1, 2, [ (2.0, 4.0) ]);
        (2, 1, [ (3.0, 4.0) ]);
        (1, 3, [ (4.0, 4.0) ]);
      ]
  in
  Check.check_flow "cycle traversal" 4.0 (solve g ~source:0 ~sink:3)

let test_infinite_source_edges () =
  (* Synthetic endpoints: infinite quantities on source edges become
     unconstrained right-hand sides, not unbounded LPs. *)
  let syn time qty = [ Interaction.unchecked ~time ~qty ] in
  let g =
    Graph.add_edge
      (Graph.add_edge
         (Graph.add_edge Graph.empty ~src:0 ~dst:1 (syn neg_infinity infinity))
         ~src:1 ~dst:2
         [ Interaction.make ~time:4.0 ~qty:6.0 ])
      ~src:2 ~dst:3 (syn infinity infinity)
  in
  Check.check_flow "finite bottleneck" 6.0 (solve g ~source:0 ~sink:3)

let test_empty_graph () =
  let g = Graph.add_vertex (Graph.add_vertex Graph.empty 0) 1 in
  Check.check_flow "no interactions" 0.0 (solve g ~source:0 ~sink:1)

let test_source_eq_sink () =
  Alcotest.check_raises "source=sink" (Invalid_argument "Lp_flow.build: source = sink")
    (fun () -> ignore (Lp_flow.build P.fig3 ~source:P.s ~sink:P.s))

(* Chained rows against the cumulative rows they stand for
   ([Lp_flow_ref], the builder that wrote every row out in full): on
   random DAG flow LPs, with timestamp ties and zero quantities, the
   same variables and rows, the same optimum within 1e-15 relative and
   the same pivots and bound flips. *)
let prop_chains_match_cumulative_rows rng =
  let g, source, sink = VGen.random_dag ~max_v:12 ~max_edges:40 rng in
  let g = if Prng.bool rng then VGen.duplicate_timestamps rng g else g in
  let g = if Prng.bool rng then VGen.zero_quantities rng g else g in
  let lp = Lp_flow.build g ~source ~sink and ref_lp = Lp_flow_ref.build g ~source ~sink in
  Alcotest.(check (pair int int)) "vars, rows"
    (ref_lp.Lp_flow_ref.n_vars, ref_lp.Lp_flow_ref.n_rows)
    (lp.Lp_flow.n_vars, lp.Lp_flow.n_rows);
  let m = SM.create () and m_ref = SM.create () in
  if lp.Lp_flow.n_vars > 0 then ignore (Problem.solve ~metrics:m lp.Lp_flow.problem);
  match (Lp_flow.solve g ~source ~sink, Lp_flow_ref.solve ~metrics:m_ref g ~source ~sink) with
  | Ok v, Ok want ->
      if Float.abs (v -. want) > 1e-15 *. Float.abs want then
        Alcotest.failf "chained %h vs cumulative %h" v want;
      Alcotest.(check (pair int int)) "pivots, bound flips"
        (m_ref.SM.pivots, m_ref.SM.bound_flips) (m.SM.pivots, m.SM.bound_flips);
      true
  | _ -> Alcotest.fail "solver failure"

(* Chained rows keep the LP linear in a vertex's events.  On
   source -> a -> b -> sink with k interleaved interactions per edge,
   a and b hold k rows each, which cumulative rows write out in
   O(k²) nonzeros: building at 4k must allocate at most 5x the words
   of building at k. *)
let test_build_allocation_linear () =
  let relay k =
    let edge first =
      List.init k (fun i ->
          Interaction.make
            ~time:(float_of_int ((3 * i) + first))
            ~qty:(float_of_int (1 + (i mod 5))))
    in
    List.fold_left
      (fun g v -> Graph.add_edge g ~src:v ~dst:(v + 1) (edge v))
      Graph.empty [ 0; 1; 2 ]
  in
  let words k =
    let g = relay k in
    let w0 = Check.allocated_words () in
    ignore (Sys.opaque_identity (Lp_flow.build g ~source:0 ~sink:3));
    Check.allocated_words () -. w0
  in
  let small = words 200 and large = words 800 in
  if large > 5.0 *. small then
    Alcotest.failf "build allocates %.0f words at k = 200 and %.0f at k = 800" small large

let () =
  Alcotest.run "lp_flow"
    [
      ( "paper-examples",
        [
          Alcotest.test_case "figure 3" `Quick test_fig3;
          Alcotest.test_case "figure 1(a)" `Quick test_fig1a;
          Alcotest.test_case "figure 5(a)" `Quick test_fig5a_chain;
          Alcotest.test_case "variable counts" `Quick test_variable_count;
          Alcotest.test_case "reservation beats greedy" `Quick test_reservation_beats_greedy;
        ] );
      ( "semantics",
        [
          Alcotest.test_case "direct source-sink" `Quick test_source_to_sink_direct;
          Alcotest.test_case "strict time" `Quick test_strict_time;
          Alcotest.test_case "tie double-spend" `Quick test_tie_no_double_spend;
          Alcotest.test_case "cyclic graphs" `Quick test_cyclic_graph_supported;
          Alcotest.test_case "infinite source edges" `Quick test_infinite_source_edges;
          Alcotest.test_case "empty graph" `Quick test_empty_graph;
          Alcotest.test_case "source=sink" `Quick test_source_eq_sink;
        ] );
      ( "chains",
        [
          Check.seeded_property "chained rows = cumulative rows" prop_chains_match_cumulative_rows;
          Alcotest.test_case "build allocation linear in events" `Quick
            test_build_allocation_linear;
        ] );
    ]
