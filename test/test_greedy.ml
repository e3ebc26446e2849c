(* Greedy flow computation (Section 4.1): paper traces and edge
   cases. *)

open Tin_testlib
module VGen = Tin_verify.Gen
module Greedy = Tin_core.Greedy
module P = Paper_examples

let test_fig3_flow () =
  Check.check_flow "greedy flow of Figure 3" 1.0 (Greedy.flow P.fig3 ~source:P.s ~sink:P.t)

let test_fig3_trace () =
  (* Table 2, transfer by transfer. *)
  let _, trace = Greedy.flow_trace P.fig3 ~source:P.s ~sink:P.t in
  let moved = List.map (fun tr -> (tr.Greedy.src, tr.Greedy.dst, tr.Greedy.moved)) trace in
  Alcotest.(check (list (triple int int (float 1e-9))))
    "transfers match Table 2"
    [
      (P.s, P.y, 5.0); (P.s, P.z, 3.0); (P.y, P.z, 5.0); (P.y, P.t, 0.0); (P.z, P.t, 1.0);
    ]
    moved

let test_fig1a_flow () =
  Check.check_flow "greedy flow of Figure 1(a)" 2.0 (Greedy.flow P.fig1a ~source:P.s ~sink:P.t)

let test_fig5a_flow () =
  Check.check_flow "greedy flow of the Figure 5(a) chain" 7.0
    (Greedy.flow P.fig5a ~source:P.s ~sink:P.t)

let test_fig5a_arrivals () =
  Alcotest.check Check.interactions "arrivals at t match the reduced edge of Figure 5"
    P.fig5a_reduced_edge
    (Greedy.arrivals_at_sink P.fig5a ~source:P.s ~sink:P.t)

let test_empty_graph () =
  let g = Graph.add_vertex (Graph.add_vertex Graph.empty 0) 1 in
  Check.check_flow "no interactions, no flow" 0.0 (Greedy.flow g ~source:0 ~sink:1)

let test_single_edge () =
  let g = Graph.of_edges [ (0, 1, [ (1.0, 5.0); (2.0, 3.0) ]) ] in
  Check.check_flow "source edge delivers everything" 8.0 (Greedy.flow g ~source:0 ~sink:1)

let test_source_infinite_buffer () =
  (* The source never runs out, even with no incoming interactions. *)
  let g = Graph.of_edges [ (0, 1, [ (1.0, 100.0) ]); (1, 2, [ (2.0, 100.0) ]) ] in
  Check.check_flow "quantity traverses" 100.0 (Greedy.flow g ~source:0 ~sink:2)

let test_strict_time_same_timestamp () =
  (* Arrival at time 2 is not usable by the outgoing interaction at
     time 2 (constraint 2 of the paper is strict). *)
  let g = Graph.of_edges [ (0, 1, [ (2.0, 5.0) ]); (1, 2, [ (2.0, 5.0) ]) ] in
  Check.check_flow "same-instant forwarding is impossible" 0.0 (Greedy.flow g ~source:0 ~sink:2)

let test_strict_time_later_ok () =
  let g = Graph.of_edges [ (0, 1, [ (2.0, 5.0) ]); (1, 2, [ (2.5, 5.0) ]) ] in
  Check.check_flow "later forwarding works" 5.0 (Greedy.flow g ~source:0 ~sink:2)

let test_no_double_spend_at_tie () =
  (* Two outgoing interactions at the same instant compete for the
     same buffer. *)
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
  Check.check_flow "buffer of 5 cannot fan out as 10" 5.0 (Greedy.flow g ~source:0 ~sink:4)

let test_cycle_supported () =
  (* Greedy runs on cyclic graphs (only the accelerators need DAGs). *)
  let g =
    Graph.of_edges
      [
        (0, 1, [ (1.0, 4.0) ]);
        (1, 2, [ (2.0, 4.0) ]);
        (2, 1, [ (3.0, 4.0) ]);
        (1, 3, [ (4.0, 4.0) ]);
      ]
  in
  Check.check_flow "flow circles through the 1-2 cycle" 4.0 (Greedy.flow g ~source:0 ~sink:3)

let test_tie_order_documented () =
  (* Interactions sharing a timestamp are scanned in the documented
     order of Graph.interactions_sorted — (time, src, dst) — so the
     winner among same-instant transfers competing for one buffer is
     deterministic: here (1,2) sorts before (1,3) and drains it. *)
  let g =
    Graph.of_edges [ (0, 1, [ (1.0, 5.0) ]); (1, 3, [ (2.0, 5.0) ]); (1, 2, [ (2.0, 5.0) ]) ]
  in
  let _, trace = Greedy.flow_trace g ~source:0 ~sink:3 in
  let order = List.map (fun tr -> (tr.Greedy.src, tr.Greedy.dst)) trace in
  Alcotest.(check (list (pair int int)))
    "scan order is (time, src, dst)"
    [ (0, 1); (1, 2); (1, 3) ]
    order;
  Check.check_flow "tie loser moves nothing" 0.0 (Greedy.flow g ~source:0 ~sink:3)

let test_zero_qty_no_spurious_buffers () =
  (* A zero-quantity interaction moves nothing and must not create a
     buffer entry downstream. *)
  let g = Graph.of_edges [ (0, 1, [ (1.0, 0.0) ]); (1, 2, [ (2.0, 5.0) ]) ] in
  let value, trace = Greedy.flow_trace g ~source:0 ~sink:2 in
  Check.check_flow "zero-quantity arrival enables nothing" 0.0 value;
  List.iter
    (fun tr -> Alcotest.(check (float 0.0)) "no quantity moves" 0.0 tr.Greedy.moved)
    trace;
  Alcotest.(check (float 0.0))
    "intermediate buffer stays empty" 0.0
    (List.assoc 1 (Greedy.buffers g ~source:0 ~sink:2))

let test_self_loop_unrepresentable () =
  (* Self-loops cannot inflate the flow because the graph refuses to
     represent them in the first place. *)
  Alcotest.check_raises "self-loop rejected" (Invalid_argument "Graph.add_edge: self-loop")
    (fun () ->
      ignore (Graph.add_interaction Graph.empty ~src:1 ~dst:1 (Interaction.make ~time:1.0 ~qty:5.0)))

let test_buffers () =
  let buffers = Greedy.buffers P.fig3 ~source:P.s ~sink:P.t in
  let lookup v = List.assoc v buffers in
  Alcotest.(check (float 1e-9)) "source buffer infinite" infinity (lookup P.s);
  Alcotest.(check (float 1e-9)) "y drained" 0.0 (lookup P.y);
  Alcotest.(check (float 1e-9)) "z keeps 7" 7.0 (lookup P.z);
  Alcotest.(check (float 1e-9)) "t holds the flow" 1.0 (lookup P.t)

let test_source_eq_sink_rejected () =
  Alcotest.check_raises "source = sink" (Invalid_argument "Greedy: source = sink") (fun () ->
      ignore (Greedy.flow P.fig3 ~source:P.s ~sink:P.s))

let test_unknown_endpoints_zero () =
  (* Vertices that do not appear in the graph simply never receive
     anything. *)
  Check.check_flow "unknown sink" 0.0 (Greedy.flow P.fig3 ~source:P.s ~sink:99)

(* The kernel's per-interaction loop allocates nothing: a boxed float
   per interaction would cost at least two minor-heap words each.  The
   interactions are built before measuring, over 50 vertices that keep
   moving quantity (ties and flushes included).  Interning the 50
   labels allocates the same few words at any length, so the count
   must not grow from 10k to 40k interactions. *)
let test_kernel_loop_allocation_free () =
  let n_vertices = 50 in
  let kernel_words n =
    let rng = Tin_util.Prng.create ~seed:7 in
    let inters =
      Array.init n (fun j ->
          let v = Tin_util.Prng.int rng n_vertices in
          let u = (v + 1 + Tin_util.Prng.int rng (n_vertices - 1)) mod n_vertices in
          let qty = float_of_int (Tin_util.Prng.int rng 10) in
          (v, u, Interaction.make ~time:(float_of_int (j / 3)) ~qty))
    in
    let k = Greedy.Kernel.create ~source:0 ~sink:1 in
    let before = Gc.minor_words () in
    Greedy.Kernel.replay k inters;
    let words = Gc.minor_words () -. before in
    Alcotest.(check bool) "the scan moved quantity" true (Greedy.Kernel.touches k > n / 10);
    words
  in
  let small = kernel_words 10_000 and large = kernel_words 40_000 in
  Alcotest.(check bool)
    (Printf.sprintf "constant words (%g at 10k, %g at 40k interactions)" small large)
    true
    (Float.equal small large && small < 1000.0)

(* Replaying [inters.(lo) .. inters.(hi - 1)] in place is the same
   scan as replaying a copy of that range, bit for bit: the daemon
   rebuilds from the live range of its window this way, without the
   copy.  Entries outside the range must not be scanned (their [moved]
   slots keep their NaN). *)
let prop_kernel_range_replay rng =
  let g, source, sink = VGen.random_digraph ~max_edges:20 ~max_inter:4 rng in
  let inters = Graph.interactions_sorted g in
  let n = Array.length inters in
  let lo = Tin_util.Prng.int rng (n + 1) in
  let hi = lo + Tin_util.Prng.int rng (n - lo + 1) in
  let ranged = Greedy.Kernel.create ~source ~sink in
  let copied = Greedy.Kernel.create ~source ~sink in
  let moved_ranged = Float.Array.make n Float.nan in
  let moved_copied = Float.Array.make (hi - lo) Float.nan in
  Greedy.Kernel.replay ~moved:moved_ranged ~lo ~hi ranged inters;
  Greedy.Kernel.replay ~moved:moved_copied copied (Array.sub inters lo (hi - lo));
  let same a b = Float.equal a b in
  same (Greedy.Kernel.flow ranged) (Greedy.Kernel.flow copied)
  && same (Greedy.Kernel.now ranged) (Greedy.Kernel.now copied)
  && List.for_all
       (fun v -> same (Greedy.Kernel.buffer ranged v) (Greedy.Kernel.buffer copied v))
       (Graph.vertices g)
  && List.for_all
       (fun j ->
         let m = Float.Array.get moved_ranged j in
         if j < lo || j >= hi then Float.is_nan m
         else same m (Float.Array.get moved_copied (j - lo)))
       (List.init n Fun.id)

let () =
  Alcotest.run "greedy"
    [
      ( "paper-examples",
        [
          Alcotest.test_case "figure 3 flow" `Quick test_fig3_flow;
          Alcotest.test_case "figure 3 trace (Table 2)" `Quick test_fig3_trace;
          Alcotest.test_case "figure 1(a) flow" `Quick test_fig1a_flow;
          Alcotest.test_case "figure 5(a) chain flow" `Quick test_fig5a_flow;
          Alcotest.test_case "figure 5(a) sink arrivals" `Quick test_fig5a_arrivals;
        ] );
      ( "semantics",
        [
          Alcotest.test_case "empty graph" `Quick test_empty_graph;
          Alcotest.test_case "single edge" `Quick test_single_edge;
          Alcotest.test_case "infinite source buffer" `Quick test_source_infinite_buffer;
          Alcotest.test_case "strict time: same timestamp" `Quick test_strict_time_same_timestamp;
          Alcotest.test_case "strict time: later ok" `Quick test_strict_time_later_ok;
          Alcotest.test_case "no double spend at ties" `Quick test_no_double_spend_at_tie;
          Alcotest.test_case "deterministic tie order" `Quick test_tie_order_documented;
          Alcotest.test_case "zero quantity buffers nothing" `Quick
            test_zero_qty_no_spurious_buffers;
          Alcotest.test_case "self-loop unrepresentable" `Quick test_self_loop_unrepresentable;
          Alcotest.test_case "cycles supported" `Quick test_cycle_supported;
          Alcotest.test_case "final buffers" `Quick test_buffers;
          Alcotest.test_case "source = sink rejected" `Quick test_source_eq_sink_rejected;
          Alcotest.test_case "unknown endpoints" `Quick test_unknown_endpoints_zero;
        ] );
      ( "kernel",
        [
          Alcotest.test_case "loop allocates nothing" `Quick test_kernel_loop_allocation_free;
          Check.seeded_property "replay over a range = replay over its copy"
            prop_kernel_range_replay;
        ] );
    ]
