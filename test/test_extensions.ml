(* Extensions beyond the paper's core: time-window restriction (its
   conclusion's "time-restricted version"), flow profiles, and flow
   decomposition into temporal paths. *)

open Tin_testlib
module VGen = Tin_verify.Gen
module Window = Tin_core.Window
module Decompose = Tin_core.Decompose
module Pipeline = Tin_core.Pipeline
module Greedy = Tin_core.Greedy
module TE = Tin_maxflow.Time_expand
module Fcmp = Tin_util.Fcmp
module P = Paper_examples

(* --- window --- *)

let test_restrict_full_identity () =
  Alcotest.check Check.graph "unbounded window is identity" P.fig3 (Window.restrict P.fig3)

let test_restrict_drops () =
  let g = Window.restrict ~from_time:2.0 ~until:4.0 P.fig3 in
  (* fig3 interactions at t=1..5; keep t=2,3,4. *)
  Alcotest.(check int) "three interactions" 3 (Graph.n_interactions g);
  Alcotest.(check bool) "vertices preserved" true (Graph.mem_vertex g P.s)

let test_windowed_flow () =
  (* Cutting off the last interaction (z->t at t=5) leaves only the
     y->t route: maximum flow 4. *)
  Check.check_flow "until 4" 4.0 (Window.max_flow ~until:4.0 P.fig3 ~source:P.s ~sink:P.t);
  Check.check_flow "empty window" 0.0
    (Window.max_flow ~from_time:100.0 P.fig3 ~source:P.s ~sink:P.t);
  Check.check_flow "full window" 5.0 (Window.max_flow P.fig3 ~source:P.s ~sink:P.t)

let test_greedy_profile () =
  let profile = Window.greedy_profile P.fig5a ~source:P.s ~sink:P.t in
  Alcotest.(check (list (pair (float 1e-9) (float 1e-9))))
    "cumulative arrivals"
    [ (6.0, 3.0); (8.0, 7.0) ]
    profile

let test_max_flow_profile () =
  let profile = Window.max_flow_profile P.fig3 ~source:P.s ~sink:P.t in
  (* Sink-incoming timestamps: 4 and 5. *)
  Alcotest.(check (list (pair (float 1e-9) (float 1e-9))))
    "profile points"
    [ (4.0, 4.0); (5.0, 5.0) ]
    profile

let prop_window_monotone rng =
  (* Larger windows can only increase the maximum flow. *)
  let g, source, sink = VGen.random_dag rng in
  let tau1 = float_of_int (Tin_util.Prng.int rng 20) in
  let tau2 = tau1 +. float_of_int (Tin_util.Prng.int rng 10) in
  Fcmp.approx_le ~eps:1e-6
    (Window.max_flow ~until:tau1 g ~source ~sink)
    (Window.max_flow ~until:tau2 g ~source ~sink)

let prop_window_equals_te_on_restricted rng =
  (* Windowed PreSim flow = Dinic on the restricted graph. *)
  let g, source, sink = VGen.random_dag rng in
  let tau = float_of_int (Tin_util.Prng.int rng 20) in
  Fcmp.approx_eq ~eps:1e-6
    (Window.max_flow ~until:tau g ~source ~sink)
    (TE.max_flow (Window.restrict ~until:tau g) ~source ~sink)

let prop_profile_nondecreasing rng =
  let g, source, sink = VGen.random_dag rng in
  let profile = Window.max_flow_profile g ~source ~sink in
  let rec nondecreasing = function
    | (_, a) :: ((_, b) :: _ as rest) -> a <= b +. 1e-9 && nondecreasing rest
    | _ -> true
  in
  nondecreasing profile
  &&
  match List.rev profile with
  | [] -> Graph.in_edges g sink = []
  | (_, last) :: _ -> Fcmp.approx_eq ~eps:1e-6 last (Pipeline.max_flow g ~source ~sink)

(* --- online (streaming) greedy: Greedy.Kernel fed one interaction
   at a time --- *)

module Kernel = Greedy.Kernel

let test_online_matches_batch_fig3 () =
  let m = Kernel.create ~source:P.s ~sink:P.t in
  Array.iter
    (fun (src, dst, i) -> ignore (Kernel.push m ~src ~dst i))
    (Graph.interactions_sorted P.fig3);
  Check.check_flow "streaming = batch" (Greedy.flow P.fig3 ~source:P.s ~sink:P.t) (Kernel.flow m);
  Alcotest.(check (float 1e-9)) "last time" 5.0 (Kernel.now m);
  Alcotest.(check (float 1e-9)) "source buffer" infinity (Kernel.buffer m P.s)

let test_online_running_flow () =
  (* The running flow is available mid-stream. *)
  let m = Kernel.create ~source:0 ~sink:2 in
  ignore (Kernel.push m ~src:0 ~dst:1 (Interaction.make ~time:1.0 ~qty:5.0));
  Check.check_flow "nothing yet" 0.0 (Kernel.flow m);
  let moved = Kernel.push m ~src:1 ~dst:2 (Interaction.make ~time:2.0 ~qty:3.0) in
  Check.check_flow "moved 3" 3.0 moved;
  Check.check_flow "flow 3" 3.0 (Kernel.flow m);
  Check.check_flow "buffer at 1" 2.0 (Kernel.buffer m 1)

let test_online_strict_same_instant () =
  let m = Kernel.create ~source:0 ~sink:2 in
  ignore (Kernel.push m ~src:0 ~dst:1 (Interaction.make ~time:2.0 ~qty:5.0));
  let moved = Kernel.push m ~src:1 ~dst:2 (Interaction.make ~time:2.0 ~qty:5.0) in
  Check.check_flow "same instant blocked" 0.0 moved

let test_online_rejects_out_of_order () =
  Alcotest.check_raises "source = sink"
    (Invalid_argument "Greedy.Kernel.create: source = sink") (fun () ->
      ignore (Kernel.create ~source:1 ~sink:1));
  let m = Kernel.create ~source:0 ~sink:2 in
  ignore (Kernel.push m ~src:0 ~dst:1 (Interaction.make ~time:5.0 ~qty:1.0));
  Alcotest.check_raises "out of order"
    (Invalid_argument "Greedy.Kernel.push: timestamps must be non-decreasing") (fun () ->
      ignore (Kernel.push m ~src:0 ~dst:1 (Interaction.make ~time:4.0 ~qty:1.0)));
  Alcotest.check_raises "self loop" (Invalid_argument "Greedy.Kernel.push: self-loop")
    (fun () -> ignore (Kernel.push m ~src:1 ~dst:1 (Interaction.make ~time:6.0 ~qty:1.0)))

(* Streaming and batch run the same kernel, so pushing the canonical
   order reproduces the batch scan bit for bit. *)
let prop_online_matches_batch rng =
  let g, source, sink = VGen.random_digraph rng in
  let m = Kernel.create ~source ~sink in
  Array.iter (fun (src, dst, i) -> ignore (Kernel.push m ~src ~dst i)) (Graph.interactions_sorted g);
  Float.equal (Greedy.flow g ~source ~sink) (Kernel.flow m)

(* Documented counterexample: the bit-exact equivalence holds only for
   the canonical (time, qty, src, dst) arrival order.  Two same-instant
   sends from one vertex arriving in the other order yield a different
   (still legal) greedy value, because a sender's availability
   decreases immediately within the instant. *)
let test_online_same_instant_order_dependent () =
  (* s=0 -> a=1 at t=0 (qty 5); a -> b=2 and a -> c=3 both at t=1
     (qty 4 and 3); sink is b.  Canonical order pushes a->b (qty 3 <
     4?  no: qty orders 3 before 4, i.e. a->c first), leaving 2 for
     a->b. *)
  let i time qty = Interaction.make ~time ~qty in
  let push m (src, dst, inter) = ignore (Kernel.push m ~src ~dst inter) in
  let canonical = [ (0, 1, i 0.0 5.0); (1, 3, i 1.0 3.0); (1, 2, i 1.0 4.0) ] in
  let swapped = [ (0, 1, i 0.0 5.0); (1, 2, i 1.0 4.0); (1, 3, i 1.0 3.0) ] in
  let flow_of order =
    let m = Kernel.create ~source:0 ~sink:2 in
    List.iter (push m) order;
    ignore (Kernel.push m ~src:3 ~dst:4 (i 2.0 1.0));
    (* advance past t=1 *)
    Kernel.flow m
  in
  let g =
    List.fold_left
      (fun g (src, dst, inter) -> Graph.add_interaction g ~src ~dst inter)
      Graph.empty
      (canonical @ [ (3, 4, [ i 2.0 1.0 ] |> List.hd) ])
  in
  (* Canonical arrival order reproduces the batch value... *)
  Check.check_flow "canonical = batch" (Greedy.flow g ~source:0 ~sink:2) (flow_of canonical);
  Check.check_flow "canonical order: qty-3 send drains first" 2.0 (flow_of canonical);
  (* ... while the same multiset of interactions in another legal
     (non-decreasing) order legitimately diverges. *)
  Check.check_flow "swapped order: qty-4 send drains first" 4.0 (flow_of swapped)

let prop_online_buffers_match rng =
  let g, source, sink = VGen.random_digraph rng in
  let m = Kernel.create ~source ~sink in
  Array.iter (fun (src, dst, i) -> ignore (Kernel.push m ~src ~dst i)) (Graph.interactions_sorted g);
  Greedy.buffers g ~source ~sink
  |> List.for_all (fun (v, b) -> Float.equal b (Kernel.buffer m v))

(* --- bounded vertex buffers (extension over the paper) --- *)

let test_buffer_cap_limits_relay () =
  (* s -> v at t=1 delivers 5, but v may hold only 2 until it relays
     at t=3. *)
  let g = Graph.of_edges [ (0, 1, [ (1.0, 5.0) ]); (1, 2, [ (3.0, 5.0) ]) ] in
  let cap c v = if v = 1 then c else infinity in
  Check.check_flow "capped at 2" 2.0
    (TE.max_flow ~buffer_capacity:(cap 2.0) g ~source:0 ~sink:2);
  Check.check_flow "zero capacity" 0.0
    (TE.max_flow ~buffer_capacity:(cap 0.0) g ~source:0 ~sink:2);
  Check.check_flow "large capacity = unbounded" 5.0
    (TE.max_flow ~buffer_capacity:(cap 100.0) g ~source:0 ~sink:2)

let test_buffer_cap_infinite_is_default () =
  Check.check_flow "explicit infinity matches default" 5.0
    (TE.max_flow ~buffer_capacity:(fun _ -> infinity) Paper_examples.fig3
       ~source:Paper_examples.s ~sink:Paper_examples.t)

let test_buffer_cap_validation () =
  Alcotest.check_raises "negative capacity"
    (Invalid_argument "Time_expand.build: bad buffer capacity") (fun () ->
      ignore
        (TE.max_flow ~buffer_capacity:(fun _ -> -1.0) Paper_examples.fig3
           ~source:Paper_examples.s ~sink:Paper_examples.t))

let test_buffer_cap_sink_uncapped () =
  (* The sink accumulates regardless of the capacity function. *)
  let g = Graph.of_edges [ (0, 1, [ (1.0, 5.0); (2.0, 5.0) ]) ] in
  Check.check_flow "sink unlimited" 10.0
    (TE.max_flow ~buffer_capacity:(fun _ -> 0.0) g ~source:0 ~sink:1)

let prop_buffer_cap_monotone rng =
  let g, source, sink = VGen.random_dag rng in
  let c1 = float_of_int (Tin_util.Prng.int rng 10) in
  let c2 = c1 +. float_of_int (Tin_util.Prng.int rng 10) in
  Fcmp.approx_le ~eps:1e-6
    (TE.max_flow ~buffer_capacity:(fun _ -> c1) g ~source ~sink)
    (TE.max_flow ~buffer_capacity:(fun _ -> c2) g ~source ~sink)

let prop_buffer_cap_bounded_by_unbounded rng =
  let g, source, sink = VGen.random_digraph rng in
  let c = float_of_int (Tin_util.Prng.int rng 15) in
  Fcmp.approx_le ~eps:1e-6
    (TE.max_flow ~buffer_capacity:(fun _ -> c) g ~source ~sink)
    (TE.max_flow g ~source ~sink)

(* --- decomposition --- *)

let test_decompose_fig3 () =
  let value, paths = Decompose.max_flow_paths P.fig3 ~source:P.s ~sink:P.t in
  Check.check_flow "value" 5.0 value;
  let total = List.fold_left (fun acc p -> acc +. p.Decompose.amount) 0.0 paths in
  Check.check_flow "paths partition the flow" 5.0 total;
  List.iter
    (fun p ->
      match p.Decompose.legs with
      | [] -> Alcotest.fail "empty path"
      | legs ->
          Alcotest.(check int) "starts at source" P.s (List.hd legs).Decompose.src;
          Alcotest.(check int) "ends at sink" P.t (List.nth legs (List.length legs - 1)).Decompose.dst;
          let rec increasing = function
            | a :: (b :: _ as rest) ->
                a.Decompose.time < b.Decompose.time && increasing rest
            | _ -> true
          in
          Alcotest.(check bool) "time increasing" true (increasing legs))
    paths

let test_decompose_chain () =
  let value, paths = Decompose.max_flow_paths P.fig5a ~source:P.s ~sink:P.t in
  Check.check_flow "value" 7.0 value;
  (* All paths traverse the whole chain s -> x -> y -> t. *)
  List.iter
    (fun p ->
      Alcotest.(check int) "three legs" 3 (List.length p.Decompose.legs))
    paths

let test_decompose_zero_flow () =
  let g = Graph.of_edges [ (0, 1, [ (10.0, 5.0) ]); (1, 2, [ (1.0, 5.0) ]) ] in
  let value, paths = Decompose.max_flow_paths g ~source:0 ~sink:2 in
  Check.check_flow "zero" 0.0 value;
  Alcotest.(check int) "no paths" 0 (List.length paths)

let test_per_interaction () =
  let _, paths = Decompose.max_flow_paths P.fig3 ~source:P.s ~sink:P.t in
  let usage = Decompose.per_interaction paths in
  (* No interaction is overdriven: each individual interaction carries
     at most its own quantity. *)
  List.iter
    (fun u ->
      Alcotest.(check bool)
        (Printf.sprintf "(%d,%d,%g) within quantity" u.Decompose.u_src u.Decompose.u_dst
           u.Decompose.u_time)
        true
        (u.Decompose.u_carried <= u.Decompose.u_offered +. 1e-9))
    usage;
  (* The y->t interaction must carry 4 in any maximum flow. *)
  let yt =
    List.find
      (fun u -> u.Decompose.u_src = P.y && u.Decompose.u_dst = P.t && u.Decompose.u_time = 4.0)
      usage
  in
  Check.check_flow "y->t carries 4" 4.0 yt.Decompose.u_carried

(* Regression: two distinct interactions sharing (src, dst, time) must
   stay separate usage rows (the old code keyed attribution by that
   triple and silently merged them into one row carrying their sum). *)
let test_per_interaction_parallel_interactions () =
  let g =
    Graph.empty
    |> (fun g -> Graph.add_interaction g ~src:0 ~dst:1 (Interaction.make ~time:1.0 ~qty:2.0))
    |> (fun g -> Graph.add_interaction g ~src:0 ~dst:1 (Interaction.make ~time:1.0 ~qty:3.0))
    |> fun g -> Graph.add_interaction g ~src:1 ~dst:2 (Interaction.make ~time:2.0 ~qty:5.0)
  in
  let value, paths = Decompose.max_flow_paths g ~source:0 ~sink:2 in
  Check.check_flow "value" 5.0 value;
  let usage = Decompose.per_interaction paths in
  Alcotest.(check int) "three distinct interactions" 3 (List.length usage);
  let on_01 = List.filter (fun u -> u.Decompose.u_src = 0 && u.Decompose.u_dst = 1) usage in
  Alcotest.(check int) "parallel same-time interactions stay separate" 2 (List.length on_01);
  List.iter
    (fun u ->
      Alcotest.(check bool) "carried within own quantity" true
        (u.Decompose.u_carried <= u.Decompose.u_offered +. 1e-9))
    usage;
  Alcotest.(check (list int))
    "distinct scan-order identities" [ 0; 1; 2 ]
    (List.map (fun u -> u.Decompose.u_inter) usage)

(* Regression: a walk that dead-ends on numerical crumbs used to abort
   the whole peeling loop, abandoning arbitrarily large flow on sibling
   branches (observed pre-fix: sum(amounts) = 0 against value = 10 on
   this gadget).  The a->n arc retains ~1.6e-9 (> eps) of flow but n's
   outgoing arcs each carry 0.8e-9 (<= eps, dropped from the peel set),
   so any walk entering n is stuck; the big a->t path must still be
   peeled.  Swept over relabelings because the walk order depends on
   hash order of the arc tables. *)
let test_decompose_crumb_dead_end_continues () =
  for k = 0 to 7 do
    let base = 10 * k in
    let s = base and a = base + 1 and n = base + 2 and t = base + 3 in
    let g =
      List.fold_left
        (fun g (src, dst, time, qty) ->
          Graph.add_interaction g ~src ~dst (Interaction.make ~time ~qty))
        Graph.empty
        [
          (s, a, 1.0, 10.0 +. 1.6e-9);
          (a, n, 2.0, 1.6e-9);
          (a, t, 2.0, 10.0);
          (n, t, 3.0, 0.8e-9);
          (n, t, 4.0, 0.8e-9);
        ]
    in
    let value, paths = Decompose.max_flow_paths g ~source:s ~sink:t in
    let total = List.fold_left (fun acc p -> acc +. p.Decompose.amount) 0.0 paths in
    (* Conservation up to eps-sized crumbs per expanded arc (the
       documented contract): 5 interaction arcs here.  Pre-fix this
       gadget lost the full value=10, not crumbs. *)
    Alcotest.(check bool)
      (Printf.sprintf "base %d: |value - sum| within eps per arc (value=%g sum=%g)" base value
         total)
      true
      (Float.abs (value -. total) <= 1e-9 *. 5.0);
    Alcotest.(check bool)
      (Printf.sprintf "base %d: the big path was peeled" base)
      true
      (total > 9.0)
  done

let prop_decompose_partitions rng =
  let g, source, sink = VGen.random_dag rng in
  let value, paths = Decompose.max_flow_paths g ~source ~sink in
  let total = List.fold_left (fun acc p -> acc +. p.Decompose.amount) 0.0 paths in
  Fcmp.approx_eq ~eps:1e-5 value total

let prop_decompose_respects_quantities rng =
  let g, source, sink = VGen.random_digraph rng in
  let _, paths = Decompose.max_flow_paths g ~source ~sink in
  Decompose.per_interaction paths
  |> List.for_all (fun u ->
         (* Usage is keyed by interaction identity, so each row is
            bounded by its own interaction's quantity. *)
         u.Decompose.u_offered > 0.0 && u.Decompose.u_carried <= u.Decompose.u_offered +. 1e-6)

let prop_decompose_legs_temporal rng =
  let g, source, sink = VGen.random_digraph rng in
  let _, paths = Decompose.max_flow_paths g ~source ~sink in
  List.for_all
    (fun p ->
      let rec increasing = function
        | a :: (b :: _ as rest) -> a.Decompose.time < b.Decompose.time && increasing rest
        | _ -> true
      in
      increasing p.Decompose.legs
      &&
      match p.Decompose.legs with
      | [] -> false
      | legs ->
          (List.hd legs).Decompose.src = source
          && (List.nth legs (List.length legs - 1)).Decompose.dst = sink)
    paths

let () =
  Alcotest.run "extensions"
    [
      ( "window",
        [
          Alcotest.test_case "identity" `Quick test_restrict_full_identity;
          Alcotest.test_case "drops out-of-window" `Quick test_restrict_drops;
          Alcotest.test_case "windowed flows" `Quick test_windowed_flow;
          Alcotest.test_case "greedy profile" `Quick test_greedy_profile;
          Alcotest.test_case "max-flow profile" `Quick test_max_flow_profile;
          Check.seeded_property ~count:100 "window monotone" prop_window_monotone;
          Check.seeded_property ~count:100 "window = TE on restricted" prop_window_equals_te_on_restricted;
          Check.seeded_property ~count:60 "profile nondecreasing" prop_profile_nondecreasing;
        ] );
      ( "online",
        [
          Alcotest.test_case "matches batch (fig3)" `Quick test_online_matches_batch_fig3;
          Alcotest.test_case "running flow" `Quick test_online_running_flow;
          Alcotest.test_case "strict same instant" `Quick test_online_strict_same_instant;
          Alcotest.test_case "ordering enforced" `Quick test_online_rejects_out_of_order;
          Check.seeded_property "streaming = batch greedy" prop_online_matches_batch;
          Alcotest.test_case "same-instant order dependence" `Quick
            test_online_same_instant_order_dependent;
          Check.seeded_property ~count:100 "streaming buffers match" prop_online_buffers_match;
        ] );
      ( "buffer-caps",
        [
          Alcotest.test_case "cap limits relay" `Quick test_buffer_cap_limits_relay;
          Alcotest.test_case "infinite = default" `Quick test_buffer_cap_infinite_is_default;
          Alcotest.test_case "validation" `Quick test_buffer_cap_validation;
          Alcotest.test_case "sink uncapped" `Quick test_buffer_cap_sink_uncapped;
          Check.seeded_property ~count:100 "monotone in capacity" prop_buffer_cap_monotone;
          Check.seeded_property ~count:100 "bounded <= unbounded" prop_buffer_cap_bounded_by_unbounded;
        ] );
      ( "decompose",
        [
          Alcotest.test_case "figure 3" `Quick test_decompose_fig3;
          Alcotest.test_case "chain" `Quick test_decompose_chain;
          Alcotest.test_case "zero flow" `Quick test_decompose_zero_flow;
          Alcotest.test_case "per-interaction usage" `Quick test_per_interaction;
          Alcotest.test_case "parallel same-(src,dst,time) interactions" `Quick
            test_per_interaction_parallel_interactions;
          Alcotest.test_case "crumb dead end keeps peeling" `Quick
            test_decompose_crumb_dead_end_continues;
          Check.seeded_property "amounts partition the flow" prop_decompose_partitions;
          Check.seeded_property "quantities respected" prop_decompose_respects_quantities;
          Check.seeded_property "legs temporal and anchored" prop_decompose_legs_temporal;
        ] );
    ]
