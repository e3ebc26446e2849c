(* Provenance engine (lib/core/provenance.ml): hand-worked policy
   vectors, budget spilling, the source-rooted = greedy contract, and
   qcheck properties tying provenance to the greedy scan and the flow
   decomposition on random problems. *)

open Tin_testlib
module VGen = Tin_verify.Gen
module Prov = Tin_core.Provenance
module Greedy = Tin_core.Greedy
module Decompose = Tin_core.Decompose
module Batch = Tin_core.Batch
module TE = Tin_maxflow.Time_expand
module Fcmp = Tin_util.Fcmp
module Prng = Tin_util.Prng

let add g ~src ~dst ~time ~qty =
  Graph.add_interaction g ~src ~dst (Interaction.make ~time ~qty)

(* The worked example used throughout: 0 →(t=1,q=5)→ 1, 2 →(t=2,q=3)→ 1,
   1 →(t=3,q=6)→ 3.  Scan order numbers them #0, #1, #2.  Vertex 2's
   send is uncovered, so 3 units are born at #1; vertex 1 then ships 6
   of its 8 buffered units to the absorbing vertex 3. *)
let worked_example () =
  let g = add Graph.empty ~src:0 ~dst:1 ~time:1.0 ~qty:5.0 in
  let g = add g ~src:2 ~dst:1 ~time:2.0 ~qty:3.0 in
  add g ~src:1 ~dst:3 ~time:3.0 ~qty:6.0

let vector r v =
  match List.assoc_opt v r.Prov.vectors with
  | Some xs -> xs
  | None -> Alcotest.failf "no vector for vertex %d" v

let mass_of vec ~index =
  match
    List.find_opt (function Prov.Inter i, _ -> i.index = index | _ -> false) vec
  with
  | Some (_, m) -> m
  | None -> 0.0

let check_vector name vec expected =
  Alcotest.(check int) (name ^ ": group count") (List.length expected) (List.length vec);
  List.iter
    (fun (index, mass) ->
      Alcotest.(check (float 0.0)) (Printf.sprintf "%s: mass of #%d" name index) mass
        (mass_of vec ~index))
    expected

let test_lrb_worked_example () =
  let r = Prov.run ~policy:Prov.Lrb ~absorb:3 (worked_example ()) in
  (* Oldest-born first: the sink drains all of #0 then one unit of #1. *)
  check_vector "sink" (vector r 3) [ (0, 5.0); (1, 1.0) ];
  check_vector "v1 remainder" (vector r 1) [ (1, 2.0) ];
  Alcotest.(check (float 0.0)) "sink total" 6.0 (List.assoc 3 r.Prov.totals);
  Alcotest.(check int) "no spills" 0 r.Prov.spills

let test_mrb_worked_example () =
  let r = Prov.run ~policy:Prov.Mrb ~absorb:3 (worked_example ()) in
  (* Newest-born first: all of #1 moves, then three units of #0. *)
  check_vector "sink" (vector r 3) [ (0, 3.0); (1, 3.0) ];
  check_vector "v1 remainder" (vector r 1) [ (0, 2.0) ]

let test_prop_worked_example () =
  let r = Prov.run ~policy:Prov.Proportional ~absorb:3 (worked_example ()) in
  (* Pro rata at ratio 6/8. *)
  check_vector "sink" (vector r 3) [ (0, 3.75); (1, 2.25) ];
  check_vector "v1 remainder" (vector r 1) [ (0, 1.25); (1, 0.75) ]

let test_origin_metadata () =
  let r = Prov.run ~policy:Prov.Lrb ~absorb:3 (worked_example ()) in
  match vector r 3 with
  | (Prov.Inter i, _) :: _ ->
      Alcotest.(check int) "origin src" 0 i.src;
      Alcotest.(check int) "origin dst" 1 i.dst;
      Alcotest.(check (float 0.0)) "origin time" 1.0 i.time;
      Alcotest.(check (float 0.0)) "origin qty" 5.0 i.qty
  | _ -> Alcotest.fail "expected an interaction-level origin first"

let test_budget_spills_to_coarse_groups () =
  (* Eight distinct feeders into a hub, budget 2: the hub's vector must
     coarsen instead of holding eight entries, without losing mass. *)
  let g =
    List.fold_left
      (fun g i ->
        add g ~src:(10 + i) ~dst:1 ~time:(float_of_int i) ~qty:1.0)
      Graph.empty
      (List.init 8 Fun.id)
  in
  let r = Prov.run ~policy:Prov.Lrb ~budget:2 g in
  let vec = vector r 1 in
  Alcotest.(check bool) "spilled" true (r.Prov.spills > 0);
  Alcotest.(check bool) "within budget" true (List.length vec <= 2);
  Alcotest.(check bool) "coarse group present" true
    (List.exists
       (function (Prov.Any | Prov.Vertex _), _ -> true | Prov.Inter _, _ -> false)
       vec);
  let sum = List.fold_left (fun acc (_, m) -> acc +. m) 0.0 vec in
  Alcotest.(check (float 1e-12)) "mass conserved across spills" 8.0 sum

let test_rooted_matches_greedy () =
  (* Source-rooted mode mirrors the greedy scan bit for bit: a cycle
     through vertex 2 plus a direct shipment to the sink. *)
  let g = add Graph.empty ~src:0 ~dst:1 ~time:1.0 ~qty:5.0 in
  let g = add g ~src:1 ~dst:2 ~time:2.0 ~qty:3.0 in
  let g = add g ~src:2 ~dst:1 ~time:3.0 ~qty:2.0 in
  let g = add g ~src:1 ~dst:3 ~time:4.0 ~qty:9.0 in
  let r = Prov.run ~policy:Prov.Proportional ~source:0 ~absorb:3 g in
  Alcotest.(check (float 0.0)) "sink total = greedy flow" (Greedy.flow g ~source:0 ~sink:3)
    (List.assoc 3 r.Prov.totals);
  let buffers = Greedy.buffers g ~source:0 ~sink:3 in
  Alcotest.(check bool) "totals = Greedy.buffers (bit-identical)" true
    (List.equal
       (fun (v, a) (w, b) -> v = w && Float.equal a b)
       buffers r.Prov.totals)

let test_trace_callback () =
  let batches = ref [] in
  let trace k batch = batches := (k, batch) :: !batches in
  ignore (Prov.run ~policy:Prov.Lrb ~absorb:3 ~trace (worked_example ()));
  let batches = List.rev !batches in
  Alcotest.(check (list int)) "trace fires per moving interaction in scan order"
    [ 0; 1; 2 ] (List.map fst batches);
  let shipped (_, batch) = List.fold_left (fun acc (_, m) -> acc +. m) 0.0 batch in
  Alcotest.(check (list (float 1e-12))) "each batch carries the shipped quantity"
    [ 5.0; 3.0; 6.0 ] (List.map shipped batches)

let test_policy_of_string () =
  List.iter
    (fun p ->
      Alcotest.(check bool)
        (Prov.policy_name p ^ " round-trips")
        true
        (Prov.policy_of_string (Prov.policy_name p) = Some p))
    [ Prov.Lrb; Prov.Mrb; Prov.Proportional ];
  Alcotest.(check bool) "proportional alias" true
    (Prov.policy_of_string "Proportional" = Some Prov.Proportional);
  Alcotest.(check bool) "garbage rejected" true (Prov.policy_of_string "fifo" = None)

let test_jobs_determinism () =
  (* Policy scans embedded in a Batch.map_reduce must be bit-identical
     across job counts: same graphs in, same vectors out, regardless of
     which domain computed which index. *)
  let rng = Prng.create ~seed:7 in
  let cases = Array.init 8 (fun _ -> VGen.random_digraph rng) in
  let run_all ~jobs policy =
    let acc =
      Batch.map_reduce ~jobs ~n:(Array.length cases)
        ~init:(fun () -> ref [])
        ~body:(fun acc i ->
          let g, _, sink = cases.(i) in
          acc := (i, Prov.run ~policy ~absorb:sink g) :: !acc)
        ~merge:(fun a b ->
          a := !b @ !a;
          a)
        ()
    in
    List.sort compare !acc
  in
  List.iter
    (fun policy ->
      Alcotest.(check bool)
        (Prov.policy_name policy ^ ": jobs=1 = jobs=4")
        true
        (run_all ~jobs:1 policy = run_all ~jobs:4 policy))
    [ Prov.Lrb; Prov.Mrb ]

(* --- properties ---------------------------------------------------- *)

let prop_decomposition_conserves rng =
  (* Satellite invariant: peeled path amounts reassemble the max-flow
     value up to eps-sized crumbs per path. *)
  let g, source, sink = VGen.random_dag rng in
  let value, paths = Decompose.max_flow_paths g ~source ~sink in
  let total = List.fold_left (fun acc p -> acc +. p.Decompose.amount) 0.0 paths in
  let eps = 1e-6 *. float_of_int (max 1 (List.length paths)) in
  Float.abs (value -. total) <= eps
  && List.for_all (fun p -> p.Decompose.amount > 0.0) paths

let prop_proportional_totals_equal_greedy rng =
  (* Source-rooted Proportional totals equal the greedy scan exactly
     (Float.equal, not approx). *)
  let g, source, sink = VGen.random_digraph rng in
  let r = Prov.run ~policy:Prov.Proportional ~source ~absorb:sink g in
  Float.equal (Greedy.flow g ~source ~sink)
       (match List.assoc_opt sink r.Prov.totals with Some m -> m | None -> 0.0)
  && List.equal
       (fun (v, a) (w, b) -> v = w && Float.equal a b)
       (Greedy.buffers g ~source ~sink)
       r.Prov.totals

let prop_policies_agree_on_totals rng =
  (* Selection policy decides *which* units move, never *how many*:
     per-vertex totals are policy-independent, bit for bit. *)
  let g, _, sink = VGen.random_digraph rng in
  let totals policy = (Prov.run ~policy ~absorb:sink g).Prov.totals in
  let reference = totals Prov.Proportional in
  List.for_all
    (fun policy ->
      List.equal
        (fun (v, a) (w, b) -> v = w && Float.equal a b)
        reference (totals policy))
    [ Prov.Lrb; Prov.Mrb ]

let prop_vectors_conserve_mass rng =
  (* Every vertex's provenance vector sums to its buffered total. *)
  let g, _, sink = VGen.random_digraph rng in
  List.for_all
    (fun policy ->
      let r = Prov.run ~policy ~absorb:sink g in
      List.for_all
        (fun (v, vec) ->
          let total =
            match List.assoc_opt v r.Prov.totals with Some m -> m | None -> 0.0
          in
          let sum = List.fold_left (fun acc (_, m) -> acc +. m) 0.0 vec in
          Fcmp.approx_eq ~eps:1e-6 total sum
          && List.for_all (fun (_, m) -> m >= 0.0) vec)
        r.Prov.vectors)
    [ Prov.Lrb; Prov.Mrb; Prov.Proportional ]

(* --- the reference engine -------------------------------------------

   [Prov_ref] runs the same scan over entry lists.  Every field must
   match it bit for bit: totals, vectors (same origins, [Float.equal]
   masses, same order), spill and peak counts, and every [?trace]
   batch. *)

let run_traced run =
  let batches = ref [] in
  let r = run (fun k batch -> batches := (k, batch) :: !batches) in
  (r, List.rev !batches)

(* [None] when the two runs agree bit for bit, else what differs. *)
let diff_runs ((a : Prov.t), ta) ((b : Prov.t), tb) =
  let same_masses =
    List.equal (fun (o1, m1) (o2, m2) -> o1 = o2 && Float.equal m1 m2)
  in
  if not (List.equal (fun (v, x) (w, y) -> v = w && Float.equal x y) a.totals b.totals) then
    Some "totals"
  else if not (List.equal (fun (v, xs) (w, ys) -> v = w && same_masses xs ys) a.vectors b.vectors)
  then Some "vectors"
  else if a.spills <> b.spills then Some (Printf.sprintf "spills %d vs %d" a.spills b.spills)
  else if a.peak_entries <> b.peak_entries then
    Some (Printf.sprintf "peak entries %d vs %d" a.peak_entries b.peak_entries)
  else if not (List.equal (fun (k, xs) (l, ys) -> k = l && same_masses xs ys) ta tb) then
    Some "trace batches"
  else None

(* [n_inter] interactions over [n_vertices] vertices, with timestamps
   drawn from a few values ([ties]) or all distinct, and quantities
   integral or fractional. *)
let random_network rng ~n_vertices ~n_inter ~ties =
  let g = ref Graph.empty in
  for j = 0 to n_inter - 1 do
    let v = Prng.int rng n_vertices in
    let u = (v + 1 + Prng.int rng (n_vertices - 1)) mod n_vertices in
    let time =
      if ties then float_of_int (Prng.int rng (1 + (n_inter / 4)))
      else float_of_int j +. Prng.float rng 0.5
    in
    let qty = if Prng.bool rng then float_of_int (Prng.int rng 10) else Prng.float rng 10.0 in
    g := add !g ~src:v ~dst:u ~time ~qty
  done;
  !g

let policies = [| Prov.Lrb; Prov.Mrb; Prov.Proportional |]

let prop_matches_reference rng =
  let n_vertices = 2 + Prng.int rng 11 in
  let g =
    random_network rng ~n_vertices ~n_inter:(1 + Prng.int rng 300) ~ties:(Prng.bool rng)
  in
  let policy = policies.(Prng.int rng 3) and budget = 2 + Prng.int rng 7 in
  let sink = Prng.int rng n_vertices in
  let source = (sink + 1 + Prng.int rng (n_vertices - 1)) mod n_vertices in
  (* Open-world or source-rooted, each with or without an absorbing
     vertex. *)
  let source, absorb =
    match Prng.int rng 4 with
    | 0 -> (None, Some sink)
    | 1 -> (Some source, Some sink)
    | 2 -> (Some source, None)
    | _ -> (None, None)
  in
  match
    diff_runs
      (run_traced (fun trace -> Prov.run ~policy ~budget ?source ?absorb ~trace g))
      (run_traced (fun trace -> Prov_ref.run ~policy ~budget ?source ?absorb ~trace g))
  with
  | None -> true
  | Some what ->
      QCheck.Test.fail_reportf "%s differ (policy %s, budget %d, %d interactions)" what
        (Prov.policy_name policy) budget (Graph.n_interactions g)

(* Long spill runs on every test run: 5k interactions over 20 vertices
   at budget 3, for each policy. *)
let test_long_spills_match_reference () =
  let g = random_network (Prng.create ~seed:19) ~n_vertices:20 ~n_inter:5000 ~ties:true in
  Array.iter
    (fun policy ->
      let ours = run_traced (fun trace -> Prov.run ~policy ~budget:3 ~absorb:1 ~trace g) in
      let reference =
        run_traced (fun trace -> Prov_ref.run ~policy ~budget:3 ~absorb:1 ~trace g)
      in
      Alcotest.(check bool)
        (Prov.policy_name policy ^ ": spilled")
        true
        ((fst ours).Prov.spills > 0);
      match diff_runs ours reference with
      | None -> ()
      | Some what ->
          Alcotest.failf "%s: %s differ from the reference" (Prov.policy_name policy) what)
    policies

(* The scan's step allocates nothing per interaction: the words [run]
   allocates beyond [Graph.interactions_sorted] are the same at 10k and
   40k interactions.  The network over 50 vertices is built so that
   everything else [run] allocates has the same size at both lengths.
   At time 0, when every buffer is empty, each vertex receives 8 fresh
   births, which fills all buffers to the budget, so no buffer grows
   later.  The body is random, three interactions per timestamp, with
   integral quantities, so no mass drifts.  A tail drains every vertex
   into the absorbing vertex 1, then sends it 8 fresh births, so the
   output vectors have the same shape. *)
let test_scan_allocation_free () =
  let n_vertices = 50 and budget = 8 and sink = 1 in
  let network n =
    let rng = Prng.create ~seed:7 in
    let g = ref Graph.empty in
    let send v u ~time ~qty = g := add !g ~src:v ~dst:u ~time ~qty in
    for v = 0 to n_vertices - 1 do
      for j = 1 to budget do
        send ((v + j) mod n_vertices) v ~time:0.0 ~qty:1.0
      done
    done;
    let body = 1.0 in
    for j = 0 to n - 1 do
      let v = Prng.int rng n_vertices in
      let u = (v + 1 + Prng.int rng (n_vertices - 1)) mod n_vertices in
      send v u ~time:(body +. float_of_int (j / 3)) ~qty:(float_of_int (Prng.int rng 10))
    done;
    let tail = body +. float_of_int n in
    for v = 0 to n_vertices - 1 do
      if v <> sink then send v sink ~time:(tail +. float_of_int v) ~qty:1e9
    done;
    for v = 2 to 9 do
      send v sink ~time:(tail +. float_of_int (n_vertices + v)) ~qty:1.0
    done;
    !g
  in
  let words f =
    let before = Gc.minor_words () in
    let r = f () in
    (r, Gc.minor_words () -. before)
  in
  Array.iter
    (fun policy ->
      let scan_words n =
        let g = network n in
        let r, run_words = words (fun () -> Prov.run ~policy ~budget ~absorb:sink g) in
        let _, sort_words = words (fun () -> Graph.interactions_sorted g) in
        Alcotest.(check bool) "the scan spilled" true (r.Prov.spills > 1000);
        run_words -. sort_words
      in
      let small = scan_words 10_000 and large = scan_words 40_000 in
      Alcotest.(check bool)
        (Printf.sprintf "%s: constant words (%g at 10k, %g at 40k interactions)"
           (Prov.policy_name policy) small large)
        true (Float.equal small large))
    policies

let () =
  Alcotest.run "provenance"
    [
      ( "policies",
        [
          Alcotest.test_case "lrb worked example" `Quick test_lrb_worked_example;
          Alcotest.test_case "mrb worked example" `Quick test_mrb_worked_example;
          Alcotest.test_case "proportional worked example" `Quick test_prop_worked_example;
          Alcotest.test_case "origin metadata" `Quick test_origin_metadata;
          Alcotest.test_case "policy_of_string" `Quick test_policy_of_string;
        ] );
      ( "engine",
        [
          Alcotest.test_case "budget spills to coarse groups" `Quick
            test_budget_spills_to_coarse_groups;
          Alcotest.test_case "source-rooted = greedy" `Quick test_rooted_matches_greedy;
          Alcotest.test_case "trace callback" `Quick test_trace_callback;
          Alcotest.test_case "deterministic across jobs" `Quick test_jobs_determinism;
        ] );
      ( "properties",
        [
          Check.seeded_property "decomposition conserves the flow value"
            prop_decomposition_conserves;
          Check.seeded_property "rooted proportional totals = greedy (exact)"
            prop_proportional_totals_equal_greedy;
          Check.seeded_property "policies agree on totals (exact)"
            prop_policies_agree_on_totals;
          Check.seeded_property "vectors conserve mass" prop_vectors_conserve_mass;
          Check.seeded_property ~count:1000 "run = list reference (bit for bit)"
            prop_matches_reference;
        ] );
      ( "reference",
        [
          Alcotest.test_case "long spill runs = list reference" `Quick
            test_long_spills_match_reference;
          Alcotest.test_case "scan step allocates nothing" `Quick test_scan_allocation_free;
        ] );
    ]
