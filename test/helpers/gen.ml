(* Deterministic random problem generators for property tests.  All
   take an explicit PRNG so qcheck can drive them from an integer seed
   (graphs themselves do not shrink well; seeds are reported on
   failure and reproduce exactly). *)

module Prng = Tin_util.Prng
module Pattern = Tin_patterns.Pattern

(* Random DAG flow problem: vertices 0..n-1 with 0 as designated
   source and n-1 as sink; edges only go from lower to higher index.
   Integral times in a small range (so timestamp ties happen) and
   integral quantities (so flow equalities are exact). *)
let random_dag ?(max_v = 8) ?(max_edges = 14) ?(max_inter = 3) rng =
  let n = 2 + Prng.int rng (max_v - 1) in
  let n_edges = 1 + Prng.int rng max_edges in
  let g = ref (Graph.add_vertex (Graph.add_vertex Graph.empty 0) (n - 1)) in
  for _ = 1 to n_edges do
    let i = Prng.int rng (n - 1) in
    let j = i + 1 + Prng.int rng (n - 1 - i) in
    let n_inter = 1 + Prng.int rng max_inter in
    let is =
      List.init n_inter (fun _ ->
          Interaction.make
            ~time:(float_of_int (Prng.int rng 20))
            ~qty:(float_of_int (Prng.int rng 10)))
    in
    g := Graph.add_edge !g ~src:i ~dst:j is
  done;
  (!g, 0, n - 1)

(* Random general directed graph (cycles allowed) — for the greedy
   scan and the LP/time-expansion equivalence, which do not need
   DAGs. *)
let random_digraph ?(max_v = 7) ?(max_edges = 12) ?(max_inter = 3) rng =
  let n = 2 + Prng.int rng (max_v - 1) in
  let n_edges = 1 + Prng.int rng max_edges in
  let g = ref (Graph.add_vertex (Graph.add_vertex Graph.empty 0) (n - 1)) in
  for _ = 1 to n_edges do
    let i = Prng.int rng n in
    let j = Prng.int rng n in
    if i <> j then begin
      let n_inter = 1 + Prng.int rng max_inter in
      let is =
        List.init n_inter (fun _ ->
            Interaction.make
              ~time:(float_of_int (Prng.int rng 20))
              ~qty:(float_of_int (Prng.int rng 10)))
      in
      g := Graph.add_edge !g ~src:i ~dst:j is
    end
  done;
  (!g, 0, n - 1)

(* Random chain s=0 → 1 → ... → k: Lemma 1 family. *)
let random_chain ?(max_len = 6) ?(max_inter = 4) rng =
  let k = 1 + Prng.int rng max_len in
  let g = ref Graph.empty in
  for i = 0 to k - 1 do
    let n_inter = 1 + Prng.int rng max_inter in
    let is =
      List.init n_inter (fun _ ->
          Interaction.make
            ~time:(float_of_int (Prng.int rng 30))
            ~qty:(float_of_int (Prng.int rng 10)))
    in
    g := Graph.add_edge !g ~src:i ~dst:(i + 1) is
  done;
  (!g, 0, k)

(* Random Lemma-2 family: a DAG where every vertex except source and
   sink has exactly one outgoing edge.  Built backwards: each interior
   vertex picks one higher-indexed target; the source sprays edges. *)
let random_lemma2 ?(max_v = 8) ?(max_inter = 3) rng =
  let n = 3 + Prng.int rng (max_v - 2) in
  let sink = n - 1 in
  let g = ref (Graph.add_vertex (Graph.add_vertex Graph.empty 0) sink) in
  let interactions () =
    List.init
      (1 + Prng.int rng max_inter)
      (fun _ ->
        Interaction.make
          ~time:(float_of_int (Prng.int rng 25))
          ~qty:(float_of_int (Prng.int rng 10)))
  in
  for i = 1 to n - 2 do
    let j = i + 1 + Prng.int rng (n - 1 - i) in
    g := Graph.add_edge !g ~src:i ~dst:j (interactions ())
  done;
  (* Source reaches a random subset of interior vertices. *)
  let n_src = 1 + Prng.int rng (n - 1) in
  for _ = 1 to n_src do
    let j = 1 + Prng.int rng (n - 1) in
    g := Graph.add_edge !g ~src:0 ~dst:j (interactions ())
  done;
  (!g, 0, sink)

(* A random small network with reciprocal edges for pattern tests. *)
let random_net ?(n = 12) ?(edges = 30) ?(max_inter = 2) rng =
  let acc = ref [] in
  for _ = 1 to edges do
    let i = Prng.int rng n and j = Prng.int rng n in
    if i <> j then begin
      let is =
        List.init
          (1 + Prng.int rng max_inter)
          (fun _ ->
            Interaction.make
              ~time:(float_of_int (Prng.int rng 20))
              ~qty:(float_of_int (1 + Prng.int rng 9)))
      in
      acc := List.map (fun x -> (i, j, x)) is @ !acc;
      if Prng.bool rng then begin
        let back =
          List.init
            (1 + Prng.int rng max_inter)
            (fun _ ->
              Interaction.make
                ~time:(float_of_int (Prng.int rng 20))
                ~qty:(float_of_int (1 + Prng.int rng 9)))
        in
        acc := List.map (fun x -> (j, i, x)) back @ !acc
      end
    end
  done;
  (* Guarantee at least one edge so the network is non-trivial. *)
  if !acc = [] then acc := [ (0, 1, Interaction.make ~time:1.0 ~qty:1.0) ];
  Compact.of_entries !acc

(* Random valid pattern for DSL round-trip tests: a forward chain
   0→1→…→n-1 (so the enumeration-order and unique-sink requirements of
   Pattern.make hold by construction) plus random extra forward edges,
   optionally made cyclic by giving the last vertex the source's label
   (in which case the direct edge 0→n-1 is excluded — same-label
   vertices cannot be adjacent). *)
let random_pattern ?(max_v = 5) rng =
  let n = 3 + Prng.int rng (max_v - 2) in
  let cyclic = Prng.bool rng in
  let labels = Array.init n (fun i -> i) in
  if cyclic then labels.(n - 1) <- 0;
  let edges = ref (List.init (n - 1) (fun i -> (i, i + 1))) in
  let n_extra = Prng.int rng n in
  for _ = 1 to n_extra do
    let i = Prng.int rng (n - 1) in
    let j = i + 1 + Prng.int rng (n - 1 - i) in
    let forbidden = cyclic && i = 0 && j = n - 1 in
    if (not forbidden) && not (List.mem (i, j) !edges) then edges := (i, j) :: !edges
  done;
  (* Keep the sink unique: drop extra edges out of n-1 (none are
     generated — all extras are forward), and ensure every interior
     vertex keeps its chain edge (it does). *)
  Pattern.make ~name:"random" ~labels ~edges:(List.sort compare !edges)
