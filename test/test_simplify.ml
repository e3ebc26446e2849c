(* Graph simplification (Algorithm 2 / Lemma 3): the Figure 5 and
   Figure 7 reductions, fixpoint behaviour and flow preservation. *)

open Tin_testlib
module Simplify = Tin_core.Simplify
module Lp_flow = Tin_core.Lp_flow
module Pipeline = Tin_core.Pipeline
module Greedy = Tin_core.Greedy
module Tables = Tin_patterns.Tables
module Prng = Tin_util.Prng
module P = Paper_examples

let test_fig5a_chain_collapse () =
  let r = Simplify.run P.fig5a ~source:P.s ~sink:P.t in
  let expected = Graph.of_edges [ (P.s, P.t, [ (6.0, 3.0); (8.0, 4.0) ]) ] in
  Alcotest.check Check.graph "chain becomes one edge" expected r.Simplify.graph;
  Alcotest.(check int) "two interior vertices removed" 2 r.Simplify.removed_vertices

let test_fig7_full_reduction () =
  let r = Simplify.run P.fig7 ~source:P.s ~sink:P.t in
  Alcotest.check Check.graph "matches Figure 7(d)" P.fig7_expected r.Simplify.graph

let test_fig7_lp_variable_count () =
  (* The paper: 9 variables before, 3 after. *)
  Alcotest.(check int) "before" 9 (Lp_flow.n_variables P.fig7 ~source:P.s);
  let r = Simplify.run P.fig7 ~source:P.s ~sink:P.t in
  Alcotest.(check int) "after" 3 (Lp_flow.n_variables r.Simplify.graph ~source:P.s)

let test_fig7_flow_preserved () =
  let before = Pipeline.compute Pipeline.Lp P.fig7 ~source:P.s ~sink:P.t in
  let r = Simplify.run P.fig7 ~source:P.s ~sink:P.t in
  let after = Pipeline.compute Pipeline.Lp r.Simplify.graph ~source:P.s ~sink:P.t in
  Check.check_flow "maximum flow unchanged" before after

let test_input_untouched () =
  let before = Graph.n_vertices P.fig7 in
  ignore (Simplify.run P.fig7 ~source:P.s ~sink:P.t);
  Alcotest.(check int) "persistent input" before (Graph.n_vertices P.fig7)

let test_no_chain_no_change () =
  let r = Simplify.run P.fig3 ~source:P.s ~sink:P.t in
  Alcotest.check Check.graph "nothing simplifiable" P.fig3 r.Simplify.graph;
  Alcotest.(check int) "no chains" 0 r.Simplify.chains_reduced

let test_chain_with_dead_tail () =
  (* The chain delivers nothing into its end vertex: the replacement
     edge is empty, i.e. removed entirely. *)
  let g =
    Graph.of_edges
      [
        (0, 1, [ (10.0, 5.0) ]);
        (1, 2, [ (1.0, 5.0) ]);
        (* too early: nothing arrives *)
        (0, 2, [ (3.0, 2.0) ]);
        (2, 3, [ (5.0, 9.0) ]);
      ]
  in
  let r = Simplify.run g ~source:0 ~sink:3 in
  Alcotest.(check bool) "vertex 1 gone" false (Graph.mem_vertex r.Simplify.graph 1);
  (* After the dead chain disappears, 0→2→3 is itself a chain and the
     whole graph collapses onto a single (0,3) edge. *)
  Alcotest.check Check.graph "fixpoint"
    (Graph.of_edges [ (0, 3, [ (5.0, 2.0) ]) ])
    r.Simplify.graph;
  Check.check_flow "flow preserved" 2.0 (Pipeline.max_flow r.Simplify.graph ~source:0 ~sink:3)

let test_parallel_edge_merge () =
  (* Chain reduction that lands on an existing (s,v) edge must merge
     interaction sequences (Figure 7(c)). *)
  let g =
    Graph.of_edges
      [
        (0, 1, [ (1.0, 4.0) ]);
        (1, 2, [ (2.0, 4.0) ]);
        (0, 2, [ (5.0, 1.0) ]);
        (* out-degree 2 at vertex 2 stops any further collapse *)
        (2, 3, [ (6.0, 9.0) ]);
        (2, 4, [ (7.0, 1.0) ]);
        (4, 3, [ (8.0, 1.0) ]);
      ]
  in
  let r = Simplify.run g ~source:0 ~sink:3 in
  Alcotest.check Check.interactions "merged sequence"
    (Interaction.of_pairs [ (2.0, 4.0); (5.0, 1.0) ])
    (Graph.edge r.Simplify.graph ~src:0 ~dst:2)

let test_whole_graph_collapses () =
  (* A pure chain collapses to a single (s,t) edge; the result is
     greedy-soluble so PreSim never calls the LP. *)
  let g =
    Graph.of_edges
      [ (0, 1, [ (1.0, 3.0) ]); (1, 2, [ (2.0, 2.0) ]); (2, 3, [ (3.0, 9.0) ]) ]
  in
  let r = Simplify.run g ~source:0 ~sink:3 in
  Alcotest.(check int) "single edge" 1 (Graph.n_edges r.Simplify.graph);
  Check.check_flow "flow" 2.0 (Pipeline.max_flow r.Simplify.graph ~source:0 ~sink:3)

let test_cyclic_rejected () =
  let g = Graph.of_edges [ (0, 1, [ (1.0, 1.0) ]); (1, 0, [ (2.0, 1.0) ]) ] in
  Alcotest.check_raises "cycle" (Invalid_argument "Simplify.run: graph has a cycle") (fun () ->
      ignore (Simplify.run g ~source:0 ~sink:1))

(* The pattern tables' chain reduction over the positional chain
   0 → 1 → … → k whose hop [p] carries the interactions [edges.(p)]. *)
let chain_flow edges =
  let net =
    Compact.of_entries
      (List.concat (List.mapi (fun p is -> List.map (fun i -> (p, p + 1, i)) is) edges))
  in
  Tables.chain_flow net
    (Array.of_list
       (List.mapi (fun p _ -> Option.get (Compact.find_edge net ~src:p ~dst:(p + 1))) edges))

(* Its exactness oracle: the total of what the greedy kernel delivers
   at the end of the same chain, as a graph. *)
let greedy_chain_flow edges =
  let g, k =
    List.fold_left
      (fun (g, p) is -> (Graph.add_edge g ~src:p ~dst:(p + 1) is, p + 1))
      (Graph.empty, 0) edges
  in
  Interaction.total_qty (Greedy.arrivals_at_sink g ~source:0 ~sink:k)

let test_chain_flow_fig5a () =
  let edges =
    [
      Graph.edge P.fig5a ~src:P.s ~dst:P.x;
      Graph.edge P.fig5a ~src:P.x ~dst:P.y;
      Graph.edge P.fig5a ~src:P.y ~dst:P.t;
    ]
  in
  Alcotest.check Check.exact "flow of Figure 5(a)'s reduced edge"
    (Interaction.total_qty P.fig5a_reduced_edge) (chain_flow edges)

let test_chain_flow_empty () = Alcotest.check Check.exact "empty chain" 0.0 (chain_flow [])

(* Bit-identity with the oracle, no tolerance.  Small time and
   quantity ranges force duplicate timestamps, duplicate and zero
   quantities — the ties the runs' merge must order as the scan does;
   tenths make the float sums order-sensitive. *)
let prop_chain_flow_is_greedy rng =
  let k = 1 + Prng.int rng 5 in
  let edges =
    List.init k (fun _ ->
        List.init
          (1 + Prng.int rng 4)
          (fun _ ->
            Interaction.make
              ~time:(float_of_int (Prng.int rng 6))
              ~qty:(float_of_int (Prng.int rng 5) /. 10.0)))
  in
  Float.equal (chain_flow edges) (greedy_chain_flow edges)

let () =
  Alcotest.run "simplify"
    [
      ( "paper-traces",
        [
          Alcotest.test_case "figure 5(a) collapse" `Quick test_fig5a_chain_collapse;
          Alcotest.test_case "figure 7 reduction" `Quick test_fig7_full_reduction;
          Alcotest.test_case "figure 7 LP variables 9 -> 3" `Quick test_fig7_lp_variable_count;
          Alcotest.test_case "figure 7 flow preserved" `Quick test_fig7_flow_preserved;
        ] );
      ( "mechanics",
        [
          Alcotest.test_case "input untouched" `Quick test_input_untouched;
          Alcotest.test_case "no chain, no change" `Quick test_no_chain_no_change;
          Alcotest.test_case "dead chain tail" `Quick test_chain_with_dead_tail;
          Alcotest.test_case "parallel edge merge" `Quick test_parallel_edge_merge;
          Alcotest.test_case "whole graph collapses" `Quick test_whole_graph_collapses;
          Alcotest.test_case "cycle rejected" `Quick test_cyclic_rejected;
          Alcotest.test_case "chain helper" `Quick test_chain_flow_fig5a;
          Alcotest.test_case "empty chain helper" `Quick test_chain_flow_empty;
          Check.seeded_property "chain helper = greedy arrivals" prop_chain_flow_is_greedy;
        ] );
    ]
