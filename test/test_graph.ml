(* Graph substrate: persistent graph, topological utilities, compiled
   CSR view and its bulk conversion to [Graph.t], CSV/DOT I/O. *)

open Tin_testlib
module Prng = Tin_util.Prng

let i_ t q = Interaction.make ~time:t ~qty:q

let test_interaction_validation () =
  Alcotest.check_raises "NaN time" (Invalid_argument "Interaction.make: NaN time") (fun () ->
      ignore (Interaction.make ~time:nan ~qty:1.0));
  Alcotest.check_raises "NaN qty" (Invalid_argument "Interaction.make: NaN quantity") (fun () ->
      ignore (Interaction.make ~time:1.0 ~qty:nan));
  Alcotest.check_raises "negative qty" (Invalid_argument "Interaction.make: negative quantity")
    (fun () -> ignore (Interaction.make ~time:1.0 ~qty:(-1.0)))

let test_interaction_boundaries () =
  (* [make] accepts exactly the CSV loader's domain: finite
     non-negative times and quantities.  Zero is a value, not an
     error. *)
  let z = Interaction.make ~time:0.0 ~qty:0.0 in
  Alcotest.(check (float 0.0)) "zero time ok" 0.0 (Interaction.time z);
  Alcotest.check_raises "negative time" (Invalid_argument "Interaction.make: negative time")
    (fun () -> ignore (Interaction.make ~time:(-1.0) ~qty:1.0));
  Alcotest.check_raises "infinite time" (Invalid_argument "Interaction.make: infinite time")
    (fun () -> ignore (Interaction.make ~time:infinity ~qty:1.0));
  Alcotest.check_raises "infinite qty" (Invalid_argument "Interaction.make: infinite quantity")
    (fun () -> ignore (Interaction.make ~time:1.0 ~qty:infinity))

let test_interaction_unchecked () =
  (* [unchecked] is the synthetic-edge escape hatch: infinities are
     legal (super-source/sink capacities), NaN and negative quantities
     still are not. *)
  let inf_q = Interaction.unchecked ~time:1.0 ~qty:infinity in
  Alcotest.(check bool) "infinite qty allowed" true (Interaction.qty inf_q = infinity);
  let early = Interaction.unchecked ~time:neg_infinity ~qty:1.0 in
  Alcotest.(check bool) "-inf time allowed" true (Interaction.time early = neg_infinity);
  Alcotest.check_raises "NaN time still rejected"
    (Invalid_argument "Interaction.unchecked: NaN time") (fun () ->
      ignore (Interaction.unchecked ~time:nan ~qty:1.0));
  Alcotest.check_raises "negative qty still rejected"
    (Invalid_argument "Interaction.unchecked: negative quantity") (fun () ->
      ignore (Interaction.unchecked ~time:1.0 ~qty:(-1.0)))

let test_interaction_order () =
  let is = Interaction.of_pairs [ (3.0, 1.0); (1.0, 2.0); (2.0, 5.0) ] in
  Alcotest.(check (list (float 0.0))) "sorted by time" [ 1.0; 2.0; 3.0 ]
    (List.map Interaction.time is);
  Alcotest.(check bool) "is_sorted" true (Interaction.is_sorted is);
  Alcotest.(check (float 0.0)) "total" 8.0 (Interaction.total_qty is)

let test_graph_basics () =
  let g = Graph.of_edges [ (0, 1, [ (1.0, 2.0) ]); (1, 2, [ (2.0, 3.0); (0.5, 1.0) ]) ] in
  Alcotest.(check int) "vertices" 3 (Graph.n_vertices g);
  Alcotest.(check int) "edges" 2 (Graph.n_edges g);
  Alcotest.(check int) "interactions" 3 (Graph.n_interactions g);
  Alcotest.(check bool) "mem_edge" true (Graph.mem_edge g ~src:1 ~dst:2);
  Alcotest.(check bool) "no reverse" false (Graph.mem_edge g ~src:2 ~dst:1);
  Alcotest.(check (list int)) "succs" [ 2 ] (Graph.succs g 1);
  Alcotest.(check (list int)) "preds" [ 0 ] (Graph.preds g 1);
  Alcotest.(check int) "out_degree" 1 (Graph.out_degree g 0);
  Alcotest.(check int) "in_degree" 0 (Graph.in_degree g 0);
  Alcotest.(check (list int)) "sources" [ 0 ] (Graph.sources g);
  Alcotest.(check (list int)) "sinks" [ 2 ] (Graph.sinks g);
  Alcotest.check Check.interactions "edge sorted"
    [ i_ 0.5 1.0; i_ 2.0 3.0 ]
    (Graph.edge g ~src:1 ~dst:2)

let test_graph_self_loop_rejected () =
  Alcotest.check_raises "self loop" (Invalid_argument "Graph.add_edge: self-loop") (fun () ->
      ignore (Graph.add_edge Graph.empty ~src:1 ~dst:1 [ i_ 1.0 1.0 ]))

let test_graph_add_edge_merges () =
  let g = Graph.add_edge Graph.empty ~src:0 ~dst:1 [ i_ 2.0 1.0 ] in
  let g = Graph.add_edge g ~src:0 ~dst:1 [ i_ 1.0 5.0 ] in
  Alcotest.(check int) "one edge" 1 (Graph.n_edges g);
  Alcotest.check Check.interactions "merged sorted"
    [ i_ 1.0 5.0; i_ 2.0 1.0 ]
    (Graph.edge g ~src:0 ~dst:1)

let test_of_sorted_edges_checks () =
  let build edges = Graph.of_sorted_edges ~vertices:[ 9 ] (List.to_seq edges) in
  let pairs =
    [ (0, 1, [ (1.0, 1.0); (2.0, 1.0) ]); (0, 2, [ (1.0, 1.0) ]); (1, 2, [ (3.0, 1.0) ]) ]
  in
  Alcotest.check Check.graph "equals the add_edge fold"
    (Graph.add_vertex (Graph.of_edges pairs) 9)
    (build (List.map (fun (s, d, ps) -> (s, d, Interaction.of_pairs ps)) pairs));
  let rejects what edges =
    match build edges with
    | _ -> Alcotest.failf "accepted %s" what
    | exception Invalid_argument _ -> ()
  in
  rejects "a self-loop" [ (1, 1, [ i_ 1.0 1.0 ]) ];
  rejects "edges out of order" [ (1, 2, [ i_ 1.0 1.0 ]); (0, 2, [ i_ 1.0 1.0 ]) ];
  rejects "a repeated edge" [ (0, 2, [ i_ 1.0 1.0 ]); (0, 2, [ i_ 2.0 1.0 ]) ];
  rejects "a sequence out of time order" [ (0, 1, [ i_ 2.0 1.0; i_ 1.0 1.0 ]) ];
  rejects "an empty sequence" [ (0, 1, []) ]

let test_graph_persistence () =
  let g0 = Graph.of_edges [ (0, 1, [ (1.0, 1.0) ]) ] in
  let g1 = Graph.remove_edge g0 ~src:0 ~dst:1 in
  Alcotest.(check int) "g0 unchanged" 1 (Graph.n_edges g0);
  Alcotest.(check int) "g1 empty" 0 (Graph.n_edges g1);
  Alcotest.(check int) "vertices remain" 2 (Graph.n_vertices g1)

let test_graph_remove_vertex () =
  let g = Graph.of_edges [ (0, 1, [ (1.0, 1.0) ]); (1, 2, [ (2.0, 1.0) ]); (0, 2, [ (3.0, 1.0) ]) ] in
  let g = Graph.remove_vertex g 1 in
  Alcotest.(check int) "vertices" 2 (Graph.n_vertices g);
  Alcotest.(check int) "edges" 1 (Graph.n_edges g);
  Alcotest.(check bool) "0->2 kept" true (Graph.mem_edge g ~src:0 ~dst:2)

let test_graph_set_edge_empty_removes () =
  let g = Graph.of_edges [ (0, 1, [ (1.0, 1.0) ]) ] in
  let g = Graph.set_edge g ~src:0 ~dst:1 [] in
  Alcotest.(check bool) "removed" false (Graph.mem_edge g ~src:0 ~dst:1);
  Alcotest.(check int) "interactions zero" 0 (Graph.n_interactions g)

let test_interactions_sorted () =
  let g =
    Graph.of_edges [ (0, 1, [ (3.0, 1.0); (1.0, 1.0) ]); (1, 2, [ (2.0, 1.0) ]) ]
  in
  let a = Graph.interactions_sorted g in
  let times = Array.to_list (Array.map (fun (_, _, i) -> Interaction.time i) a) in
  Alcotest.(check (list (float 0.0))) "global order" [ 1.0; 2.0; 3.0 ] times

let test_interactions_sorted_tiebreak () =
  let g = Graph.of_edges [ (5, 1, [ (1.0, 1.0) ]); (0, 9, [ (1.0, 2.0) ]) ] in
  let a = Graph.interactions_sorted g in
  (* Equal quantity? No: ties in time break by qty then src. *)
  Alcotest.(check int) "count" 2 (Array.length a)

let test_topo_sort () =
  let g = Paper_examples.fig3 in
  match Topo.sort g with
  | None -> Alcotest.fail "fig3 is a DAG"
  | Some order ->
      let pos = List.mapi (fun i v -> (v, i)) order in
      let p v = List.assoc v pos in
      Graph.iter_edges (fun a b _ -> Alcotest.(check bool) "edge respects order" true (p a < p b)) g

let test_topo_cycle () =
  let g = Graph.of_edges [ (0, 1, [ (1.0, 1.0) ]); (1, 0, [ (2.0, 1.0) ]) ] in
  Alcotest.(check bool) "not a DAG" false (Topo.is_dag g);
  Alcotest.check_raises "sort_exn raises" (Invalid_argument "Topo.sort_exn: graph has a cycle")
    (fun () -> ignore (Topo.sort_exn g))

let test_topo_reaches () =
  let g = Paper_examples.fig3 in
  Alcotest.(check bool) "s reaches t" true (Topo.reaches g Paper_examples.s Paper_examples.t);
  Alcotest.(check bool) "t does not reach s" false (Topo.reaches g Paper_examples.t Paper_examples.s);
  Alcotest.(check bool) "reflexive" true (Topo.reaches g Paper_examples.s Paper_examples.s)

let test_topo_dagify () =
  let g =
    Graph.of_edges
      [
        (0, 1, [ (1.0, 1.0) ]);
        (1, 2, [ (2.0, 1.0) ]);
        (2, 1, [ (3.0, 1.0) ]);
        (2, 3, [ (4.0, 1.0) ]);
      ]
  in
  let dag = Topo.dagify g ~root:0 in
  Alcotest.(check bool) "acyclic now" true (Topo.is_dag dag);
  Alcotest.(check bool) "still reaches sink" true (Topo.reaches dag 0 3)

let test_compact_roundtrip () =
  let g = Paper_examples.fig7 in
  let net = Compact.of_graph g in
  Alcotest.(check int) "vertices" (Graph.n_vertices g) (Compact.n_vertices net);
  Alcotest.(check int) "edges" (Graph.n_edges g) (Compact.n_edges net);
  Alcotest.(check int) "interactions" (Graph.n_interactions g) (Compact.n_interactions net);
  Alcotest.check Check.graph "roundtrip" g (Compact.to_graph net)

let test_compact_lookup () =
  let net =
    Compact.of_entries [ (10, 20, i_ 1.0 1.0); (20, 30, i_ 2.0 2.0); (10, 30, i_ 3.0 3.0) ]
  in
  let v10 = Option.get (Compact.vertex_of_label net 10) in
  let v20 = Option.get (Compact.vertex_of_label net 20) in
  let v30 = Option.get (Compact.vertex_of_label net 30) in
  Alcotest.(check int) "out degree" 2 (Compact.out_degree net v10);
  Alcotest.(check int) "in degree" 2 (Compact.in_degree net v30);
  Alcotest.(check bool) "find_edge hit" true (Compact.find_edge net ~src:v10 ~dst:v20 <> None);
  Alcotest.(check bool) "find_edge miss" true (Compact.find_edge net ~src:v30 ~dst:v10 = None);
  Alcotest.(check int) "labels roundtrip" 10 (Compact.label net v10);
  (* Neighbours come in ascending id order, each with the edge that
     find_edge returns for the pair. *)
  let row iter v =
    let acc = ref [] in
    iter net v (fun u e -> acc := (u, e) :: !acc);
    List.rev !acc
  in
  let e a b = Option.get (Compact.find_edge net ~src:a ~dst:b) in
  Alcotest.(check (list (pair int int))) "iter_succs" [ (v20, e v10 v20); (v30, e v10 v30) ]
    (row Compact.iter_succs v10);
  Alcotest.(check (list (pair int int))) "iter_preds" [ (v10, e v10 v30); (v20, e v20 v30) ]
    (row Compact.iter_preds v30)

let test_compact_merges_duplicates () =
  let net = Compact.of_entries [ (0, 1, i_ 2.0 1.0); (0, 1, i_ 1.0 5.0) ] in
  Alcotest.(check int) "one edge" 1 (Compact.n_edges net);
  let is = Compact.edge_interactions net 0 in
  Alcotest.(check int) "both interactions" 2 (List.length is);
  Alcotest.(check (float 0.0)) "sorted" 1.0 (Interaction.time (List.hd is))

let test_compact_edges_to_graph_dedups () =
  let net = Compact.of_entries [ (0, 1, i_ 1.0 1.0); (1, 2, i_ 2.0 2.0) ] in
  let e01 = Option.get (Compact.find_edge net ~src:0 ~dst:1) in
  let g = Compact.edges_to_graph net [ e01; e01 ] in
  Alcotest.(check int) "no duplication" 1 (Graph.n_interactions g)

(* A random substrate over spread-out labels, with isolated vertices,
   reciprocal edges, and edges carrying same-timestamp and exactly
   repeated interactions. *)
let random_substrate rng =
  let n = 2 + Prng.int rng 12 in
  let label v = (7 * v) - 20 in
  let inter () = i_ (float_of_int (Prng.int rng 5)) (float_of_int (1 + Prng.int rng 3)) in
  let entries = ref [] in
  for _ = 1 to Prng.int rng 40 do
    let s = Prng.int rng n and d = Prng.int rng n in
    if s <> d then begin
      let is = List.init (1 + Prng.int rng 3) (fun _ -> inter ()) in
      let is = if Prng.bool rng then List.hd is :: is else is in
      entries := List.map (fun i -> (label s, label d, i)) is @ !entries;
      if Prng.bool rng then entries := (label d, label s, inter ()) :: !entries
    end
  done;
  let isolated = List.init (Prng.int rng 4) (fun k -> 1000 + k) in
  Compact.of_entries ~vertices:isolated !entries

let prop_to_graph_matches_fold rng =
  let net = random_substrate rng in
  Check.same_graph (Check.to_graph_by_fold net) (Compact.to_graph net)

let prop_edges_to_graph_matches_fold rng =
  let net = random_substrate rng in
  let m = Compact.n_edges net in
  (* Shuffled ids, a few of them repeated. *)
  let eids =
    Array.of_list
      (List.filter (fun _ -> Prng.bool rng) (List.init m Fun.id)
      @ List.init (if m = 0 then 0 else Prng.int rng 4) (fun _ -> Prng.int rng m))
  in
  Prng.shuffle rng eids;
  let eids = Array.to_list eids in
  Check.same_graph
    (Check.add_edges_by_fold Graph.empty net eids)
    (Compact.edges_to_graph net eids)

let test_compact_self_loop_to_graph () =
  (* The substrate holds a self-loop; Graph.t cannot. *)
  let net = Compact.of_entries [ (5, 5, i_ 1.0 2.0); (5, 6, i_ 2.0 3.0) ] in
  let raises what f =
    match f () with
    | _ -> Alcotest.failf "%s accepted a self-loop" what
    | exception Invalid_argument _ -> ()
  in
  raises "to_graph" (fun () -> Compact.to_graph net);
  raises "edges_to_graph" (fun () ->
      Compact.edges_to_graph net (List.init (Compact.n_edges net) Fun.id))

let test_csv_roundtrip () =
  let g = Paper_examples.fig3 in
  let path = Filename.temp_file "tin_test" ".csv" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Io.save_csv path g;
      let g' = Io.load_graph path in
      Alcotest.check Check.graph "roundtrip" g g')

let test_csv_parse_errors () =
  let path = Filename.temp_file "tin_test" ".csv" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_text path (fun oc ->
          output_string oc "src,dst,time,qty\n0,1,abc,2\n");
      match Io.load_graph path with
      | exception Io.Parse_error { line = 2; _ } -> ()
      | exception e -> Alcotest.failf "unexpected exception %s" (Printexc.to_string e)
      | _ -> Alcotest.fail "expected Parse_error")

let test_csv_negative_quantity () =
  let path = Filename.temp_file "tin_test" ".csv" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_text path (fun oc -> output_string oc "0,1,5,-2\n");
      match Io.load_graph path with
      | exception Io.Parse_error { line = 1; _ } -> ()
      | exception e -> Alcotest.failf "unexpected exception %s" (Printexc.to_string e)
      | _ -> Alcotest.fail "expected Parse_error")

let test_csv_skips_comments_and_self_loops () =
  let path = Filename.temp_file "tin_test" ".csv" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_text path (fun oc ->
          output_string oc "# comment\n\n1,1,5,5\n1,2,1,2\n");
      let g = Io.load_graph path in
      Alcotest.(check int) "self-loop skipped" 1 (Graph.n_interactions g))

let contains hay needle =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

let test_corrupt_fixture () =
  (* Checked-in regression fixture: NaN quantity on line 3, column 9.
     Under `dune runtest` the cwd is _build/default/test. *)
  let path =
    List.find_opt Sys.file_exists [ "data/corrupt.csv"; "test/data/corrupt.csv" ]
    |> Option.value ~default:"data/corrupt.csv"
  in
  (match Io.load_result path with
  | Ok _ -> Alcotest.fail "corrupt fixture parsed"
  | Error e ->
      Alcotest.(check int) "line" 3 e.Io.line;
      Alcotest.(check int) "column" 9 e.Io.column;
      Alcotest.(check bool) "mentions NaN" true (contains e.Io.message "NaN");
      Alcotest.(check bool)
        "file:line:column diagnostic" true
        (contains (Io.error_to_string e) "corrupt.csv:3:9"));
  match Io.load_graph path with
  | exception Io.Parse_error { line = 3; column = 9; _ } -> ()
  | exception e -> Alcotest.failf "unexpected exception %s" (Printexc.to_string e)
  | _ -> Alcotest.fail "expected Parse_error"

let test_dot_output () =
  let dot = Io.to_dot ~source:Paper_examples.s ~sink:Paper_examples.t Paper_examples.fig3 in
  Alcotest.(check bool) "digraph header" true (contains dot "digraph");
  Alcotest.(check bool) "mentions an edge" true (contains dot "->");
  Alcotest.(check bool) "source highlighted" true (contains dot "palegreen")

let () =
  Alcotest.run "graph"
    [
      ( "interaction",
        [
          Alcotest.test_case "validation" `Quick test_interaction_validation;
          Alcotest.test_case "boundaries" `Quick test_interaction_boundaries;
          Alcotest.test_case "unchecked" `Quick test_interaction_unchecked;
          Alcotest.test_case "ordering" `Quick test_interaction_order;
        ] );
      ( "graph",
        [
          Alcotest.test_case "basics" `Quick test_graph_basics;
          Alcotest.test_case "self-loop rejected" `Quick test_graph_self_loop_rejected;
          Alcotest.test_case "add_edge merges" `Quick test_graph_add_edge_merges;
          Alcotest.test_case "of_sorted_edges checks its input" `Quick test_of_sorted_edges_checks;
          Alcotest.test_case "persistence" `Quick test_graph_persistence;
          Alcotest.test_case "remove_vertex" `Quick test_graph_remove_vertex;
          Alcotest.test_case "set_edge empty removes" `Quick test_graph_set_edge_empty_removes;
          Alcotest.test_case "interactions_sorted" `Quick test_interactions_sorted;
          Alcotest.test_case "tie-break determinism" `Quick test_interactions_sorted_tiebreak;
        ] );
      ( "topo",
        [
          Alcotest.test_case "sort" `Quick test_topo_sort;
          Alcotest.test_case "cycle detection" `Quick test_topo_cycle;
          Alcotest.test_case "reaches" `Quick test_topo_reaches;
          Alcotest.test_case "dagify" `Quick test_topo_dagify;
        ] );
      ( "compact",
        [
          Alcotest.test_case "roundtrip" `Quick test_compact_roundtrip;
          Alcotest.test_case "lookups" `Quick test_compact_lookup;
          Alcotest.test_case "duplicate merge" `Quick test_compact_merges_duplicates;
          Alcotest.test_case "edges_to_graph dedup" `Quick test_compact_edges_to_graph_dedups;
          Check.seeded_property "to_graph = add_edge fold" prop_to_graph_matches_fold;
          Check.seeded_property "edges_to_graph = add_edge fold" prop_edges_to_graph_matches_fold;
          Alcotest.test_case "self-loop to graph raises" `Quick test_compact_self_loop_to_graph;
        ] );
      ( "io",
        [
          Alcotest.test_case "csv roundtrip" `Quick test_csv_roundtrip;
          Alcotest.test_case "csv parse error" `Quick test_csv_parse_errors;
          Alcotest.test_case "csv negative quantity" `Quick test_csv_negative_quantity;
          Alcotest.test_case "csv comments/self-loops" `Quick test_csv_skips_comments_and_self_loops;
          Alcotest.test_case "csv corrupt fixture" `Quick test_corrupt_fixture;
          Alcotest.test_case "dot output" `Quick test_dot_output;
        ] );
    ]
