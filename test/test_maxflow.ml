(* Static max-flow substrate: residual networks, Dinic, and the
   time-expanded reduction. *)

open Tin_testlib
module Net = Tin_maxflow.Net
module Dinic = Tin_maxflow.Dinic
module TE = Tin_maxflow.Time_expand

let net_of ~n arcs =
  Net.of_arcs ~n
    ~src:(Array.of_list (List.map (fun (s, _, _) -> s) arcs))
    ~dst:(Array.of_list (List.map (fun (_, d, _) -> d) arcs))
    ~cap:(Array.of_list (List.map (fun (_, _, c) -> c) arcs))

(* CLRS figure: classic 6-node network with max flow 23. *)
let clrs () =
  net_of ~n:6
    [
      (0, 1, 16.0);
      (0, 2, 13.0);
      (1, 2, 10.0);
      (2, 1, 4.0);
      (1, 3, 12.0);
      (3, 2, 9.0);
      (2, 4, 14.0);
      (4, 3, 7.0);
      (3, 5, 20.0);
      (4, 5, 4.0);
    ]

let test_dinic_clrs () =
  Alcotest.(check (float 1e-9)) "Dinic" 23.0 (Dinic.max_flow (clrs ()) ~source:0 ~sink:5)

let test_dinic_trivial () =
  let net = net_of ~n:2 [ (0, 1, 7.0) ] in
  Alcotest.(check (float 1e-9)) "single arc" 7.0 (Dinic.max_flow net ~source:0 ~sink:1);
  let empty = net_of ~n:3 [] in
  Alcotest.(check (float 1e-9)) "no arcs" 0.0 (Dinic.max_flow empty ~source:0 ~sink:2);
  (* The first phase saturates 0->1->2->3, which blocks both longer
     routes; the second must push back along 1->2's residual twin,
     0->4->2 then 2->1->5->6->3. *)
  let reroute =
    net_of ~n:7
      [ (0, 1, 1.0); (1, 2, 1.0); (2, 3, 1.0); (0, 4, 1.0); (4, 2, 1.0); (1, 5, 1.0); (5, 6, 1.0);
        (6, 3, 1.0) ]
  in
  Alcotest.(check (float 1e-9)) "reroute through a residual twin" 2.0
    (Dinic.max_flow reroute ~source:0 ~sink:3)

let test_disconnected () =
  let net = net_of ~n:4 [ (0, 1, 5.0); (2, 3, 5.0) ] in
  Alcotest.(check (float 1e-9)) "no path" 0.0 (Dinic.max_flow net ~source:0 ~sink:3)

let test_parallel_arcs () =
  let net = net_of ~n:2 [ (0, 1, 2.0); (0, 1, 3.0) ] in
  Alcotest.(check (float 1e-9)) "parallel arcs add" 5.0 (Dinic.max_flow net ~source:0 ~sink:1)

let test_flow_conservation () =
  let net = clrs () in
  ignore (Dinic.max_flow net ~source:0 ~sink:5);
  (* Check per-node conservation using per-arc flows. *)
  let inflow = Array.make 6 0.0 and outflow = Array.make 6 0.0 in
  Array.iter
    (fun a ->
      let f = Net.flow net a in
      Alcotest.(check bool) "capacity respected" true (f <= net.Net.cap.(a) +. 1e-9);
      Alcotest.(check bool) "non-negative" true (f >= -1e-9);
      let src = net.Net.head.(net.Net.twin.(a)) and dst = net.Net.head.(a) in
      outflow.(src) <- outflow.(src) +. f;
      inflow.(dst) <- inflow.(dst) +. f)
    net.Net.fwd;
  for v = 1 to 4 do
    Alcotest.(check (float 1e-9)) "conservation" inflow.(v) outflow.(v)
  done

let test_arc_validation () =
  Alcotest.check_raises "bad capacity" (Invalid_argument "Net.of_arcs: bad capacity") (fun () ->
      ignore (net_of ~n:2 [ (0, 1, -1.0) ]));
  Alcotest.check_raises "NaN capacity" (Invalid_argument "Net.of_arcs: bad capacity") (fun () ->
      ignore (net_of ~n:2 [ (0, 1, Float.nan) ]));
  Alcotest.check_raises "bad node" (Invalid_argument "Net.of_arcs: node out of range") (fun () ->
      ignore (net_of ~n:2 [ (0, 7, 1.0) ]));
  Alcotest.check_raises "length mismatch" (Invalid_argument "Net.of_arcs: length mismatch")
    (fun () -> ignore (Net.of_arcs ~n:2 ~src:[| 0 |] ~dst:[| 1 |] ~cap:[||]))

(* Each node's slots hold its out-arcs and the twins of its in-arcs,
   in input order. *)
let test_csr_layout () =
  let net = net_of ~n:3 [ (0, 1, 1.0); (1, 2, 2.0); (0, 2, 3.0) ] in
  let first = net.Net.first in
  let heads v = List.init (first.(v + 1) - first.(v)) (fun i -> net.Net.head.(first.(v) + i)) in
  Alcotest.(check (list int)) "node 0" [ 1; 2 ] (heads 0);
  Alcotest.(check (list int)) "node 1" [ 0; 2 ] (heads 1);
  Alcotest.(check (list int)) "node 2" [ 1; 0 ] (heads 2);
  Array.iteri
    (fun a b -> Alcotest.(check int) "twins pair up" a net.Net.twin.(b))
    net.Net.twin;
  Alcotest.(check (list (float 0.0)))
    "forward capacities" [ 1.0; 2.0; 3.0 ]
    (List.map (fun a -> net.Net.cap.(a)) (Array.to_list net.Net.fwd))

let test_source_eq_sink () =
  let net = net_of ~n:2 [] in
  Alcotest.check_raises "dinic" (Invalid_argument "Dinic.max_flow: source = sink") (fun () ->
      ignore (Dinic.max_flow net ~source:0 ~sink:0))

(* Max-flow/min-cut by brute force, sharing no code with Dinic: the
   smallest capacity leaving any of the 2^(n-2) vertex sets that hold
   the source 0 but not the sink n - 1 (bit v of [mask] puts vertex
   v + 1 in the set). *)
let min_cut ~n arcs =
  let best = ref infinity in
  for mask = 0 to (1 lsl (n - 2)) - 1 do
    let inside v = v = 0 || (v < n - 1 && mask land (1 lsl (v - 1)) <> 0) in
    let cut =
      List.fold_left
        (fun acc (s, d, c) -> if inside s && not (inside d) then acc +. c else acc)
        0.0 arcs
    in
    best := Float.min !best cut
  done;
  !best

let test_random_dinic_eq_min_cut () =
  let rng = Tin_util.Prng.create ~seed:99 in
  for _ = 1 to 150 do
    let n = 2 + Tin_util.Prng.int rng 7 in
    let m = 1 + Tin_util.Prng.int rng 15 in
    let arcs = ref [] in
    for _ = 1 to m do
      let s = Tin_util.Prng.int rng n and d = Tin_util.Prng.int rng n in
      if s <> d then arcs := (s, d, float_of_int (Tin_util.Prng.int rng 10)) :: !arcs
    done;
    let arcs = List.rev !arcs in
    Alcotest.(check (float 1e-7)) "Dinic = min cut" (min_cut ~n arcs)
      (Dinic.max_flow (net_of ~n arcs) ~source:0 ~sink:(n - 1))
  done

(* --- time expansion --- *)

let test_te_fig3 () =
  Alcotest.(check (float 1e-9)) "max flow (Dinic)" 5.0
    (TE.max_flow Paper_examples.fig3 ~source:Paper_examples.s ~sink:Paper_examples.t)

let test_te_fig1a () =
  Alcotest.(check (float 1e-9)) "max flow" 5.0
    (TE.max_flow Paper_examples.fig1a ~source:Paper_examples.s ~sink:Paper_examples.t)

let test_te_chain_equals_greedy () =
  Alcotest.(check (float 1e-9)) "chain max = greedy (Lemma 1)" 7.0
    (TE.max_flow Paper_examples.fig5a ~source:Paper_examples.s ~sink:Paper_examples.t)

let test_te_strict_time () =
  let g = Graph.of_edges [ (0, 1, [ (2.0, 5.0) ]); (1, 2, [ (2.0, 5.0) ]) ] in
  Alcotest.(check (float 1e-9)) "no same-instant relay" 0.0 (TE.max_flow g ~source:0 ~sink:2)

let test_te_infinite_quantities () =
  (* Synthetic source edge: infinite quantity must be big-M'd, flow is
     capped by the finite inner edge. *)
  let syn time qty = [ Interaction.unchecked ~time ~qty ] in
  let g =
    Graph.add_edge
      (Graph.add_edge
         (Graph.add_edge Graph.empty ~src:0 ~dst:1 (syn neg_infinity infinity))
         ~src:1 ~dst:2
         [ Interaction.make ~time:5.0 ~qty:7.0 ])
      ~src:2 ~dst:3 (syn infinity infinity)
  in
  Alcotest.(check (float 1e-9)) "finite bottleneck" 7.0 (TE.max_flow g ~source:0 ~sink:3)

let test_te_structure () =
  let g = Paper_examples.fig3 and source = Paper_examples.s and sink = Paper_examples.t in
  (* y has events at 1, 3, 4 and z at 2, 3, 5: one node per event time,
     and one more per event after the first when the buffer is finite. *)
  let te = TE.build g ~source ~sink in
  Alcotest.(check int) "one node per event" 6 te.TE.n_event_nodes;
  Alcotest.(check int) "S, T and the event nodes" 8 te.TE.net.Net.n;
  Alcotest.(check bool) "every interaction has an arc" true
    (Array.for_all (fun a -> a >= 0) te.TE.interaction_arcs);
  let finite = TE.build ~buffer_capacity:(fun _ -> 10.0) g ~source ~sink in
  Alcotest.(check int) "two-node layout" 10 finite.TE.n_event_nodes

(* Contracting the unbounded layout is exact: a finite buffer capacity
   that cannot bind (the total quantity) forces the two-node layout,
   and both must give the same maximum flow. *)
let test_te_contraction_exact () =
  let rng = Tin_util.Prng.create ~seed:2024 in
  let cyclic = ref 0 in
  while !cyclic < 300 do
    let g, source, sink = Tin_verify.Gen.random_digraph ~max_v:10 ~max_edges:30 rng in
    if not (Topo.is_dag g) then begin
      incr cyclic;
      let unbounded = TE.max_flow g ~source ~sink in
      let two_node = TE.max_flow ~buffer_capacity:(fun _ -> Graph.total_qty g) g ~source ~sink in
      Alcotest.(check bool)
        (Printf.sprintf "unbounded %g = two-node %g" unbounded two_node)
        true
        (Tin_util.Fcmp.approx_eq unbounded two_node)
    end
  done

(* Solving allocates a size-independent number of minor-heap words: the
   working arrays are too large for the minor heap, and the phase loop
   allocates nothing (no closures, no queue cells, no boxed floats).
   So the count must not grow from 10k to 40k interactions. *)
let test_dinic_allocation_free () =
  let n_vertices = 50 in
  let solve_words n =
    let rng = Tin_util.Prng.create ~seed:11 in
    let g = ref Graph.empty in
    for j = 0 to n - 1 do
      let v = Tin_util.Prng.int rng n_vertices in
      let u = (v + 1 + Tin_util.Prng.int rng (n_vertices - 1)) mod n_vertices in
      let qty = float_of_int (1 + Tin_util.Prng.int rng 10) in
      let time = float_of_int (j / 3) in
      g := Graph.add_interaction !g ~src:v ~dst:u (Interaction.make ~time ~qty)
    done;
    let te = TE.build !g ~source:0 ~sink:1 in
    let before = Gc.minor_words () in
    let value = Dinic.max_flow te.TE.net ~source:te.TE.source_node ~sink:te.TE.sink_node in
    let words = Gc.minor_words () -. before in
    Alcotest.(check bool) "flow found" true (value > 0.0);
    words
  in
  let small = solve_words 10_000 and large = solve_words 40_000 in
  Alcotest.(check bool)
    (Printf.sprintf "constant words (%g at 10k, %g at 40k interactions)" small large)
    true
    (Float.equal small large && small < 1000.0)

let test_te_incoming_to_source_ignored () =
  let g =
    Graph.of_edges [ (0, 1, [ (1.0, 5.0) ]); (1, 0, [ (2.0, 3.0) ]); (1, 2, [ (3.0, 4.0) ]) ]
  in
  Alcotest.(check (float 1e-9)) "flow unaffected by backwash" 4.0 (TE.max_flow g ~source:0 ~sink:2)

let () =
  Alcotest.run "maxflow"
    [
      ( "solvers",
        [
          Alcotest.test_case "Dinic on CLRS" `Quick test_dinic_clrs;
          Alcotest.test_case "Dinic edge cases" `Quick test_dinic_trivial;
          Alcotest.test_case "disconnected" `Quick test_disconnected;
          Alcotest.test_case "parallel arcs" `Quick test_parallel_arcs;
          Alcotest.test_case "flow conservation" `Quick test_flow_conservation;
          Alcotest.test_case "arc validation" `Quick test_arc_validation;
          Alcotest.test_case "CSR layout" `Quick test_csr_layout;
          Alcotest.test_case "source = sink" `Quick test_source_eq_sink;
          Alcotest.test_case "Dinic = min cut (random)" `Quick test_random_dinic_eq_min_cut;
        ] );
      ( "time-expansion",
        [
          Alcotest.test_case "figure 3" `Quick test_te_fig3;
          Alcotest.test_case "figure 1(a)" `Quick test_te_fig1a;
          Alcotest.test_case "chain = greedy" `Quick test_te_chain_equals_greedy;
          Alcotest.test_case "strict time" `Quick test_te_strict_time;
          Alcotest.test_case "infinite quantities" `Quick test_te_infinite_quantities;
          Alcotest.test_case "structure" `Quick test_te_structure;
          Alcotest.test_case "contraction is exact" `Quick test_te_contraction_exact;
          Alcotest.test_case "Dinic allocates nothing per phase" `Quick test_dinic_allocation_free;
          Alcotest.test_case "incoming to source" `Quick test_te_incoming_to_source_ignored;
        ] );
    ]
