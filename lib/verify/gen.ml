module Prng = Tin_util.Prng

type case = {
  graph : Graph.t;
  source : Graph.vertex;
  sink : Graph.vertex;
  family : string;
  mutations : string list;
}

(* --- base generators ------------------------------------------------

   Shared by the [tinflow verify] fuzzer and the property tests:
   integral times in a small range so timestamp ties happen naturally,
   integral quantities so flow equalities are exact in the unmutated
   case. *)

let interactions ?(max_inter = 3) ?(max_time = 20) ?(max_qty = 10) rng =
  List.init
    (1 + Prng.int rng max_inter)
    (fun _ ->
      Interaction.make
        ~time:(float_of_int (Prng.int rng max_time))
        ~qty:(float_of_int (Prng.int rng max_qty)))

let random_dag ?(max_v = 8) ?(max_edges = 14) rng =
  let n = 2 + Prng.int rng (max_v - 1) in
  let n_edges = 1 + Prng.int rng max_edges in
  let g = ref (Graph.add_vertex (Graph.add_vertex Graph.empty 0) (n - 1)) in
  for _ = 1 to n_edges do
    let i = Prng.int rng (n - 1) in
    let j = i + 1 + Prng.int rng (n - 1 - i) in
    g := Graph.add_edge !g ~src:i ~dst:j (interactions rng)
  done;
  (!g, 0, n - 1)

let random_digraph ?(max_v = 7) ?(max_edges = 12) ?max_inter rng =
  let n = 2 + Prng.int rng (max_v - 1) in
  let n_edges = 1 + Prng.int rng max_edges in
  let g = ref (Graph.add_vertex (Graph.add_vertex Graph.empty 0) (n - 1)) in
  for _ = 1 to n_edges do
    let i = Prng.int rng n in
    let j = Prng.int rng n in
    if i <> j then g := Graph.add_edge !g ~src:i ~dst:j (interactions ?max_inter rng)
  done;
  (!g, 0, n - 1)

let random_chain ?(max_len = 6) ?max_inter rng =
  let k = 1 + Prng.int rng max_len in
  let g = ref Graph.empty in
  for i = 0 to k - 1 do
    g := Graph.add_edge !g ~src:i ~dst:(i + 1) (interactions ?max_inter ~max_time:30 rng)
  done;
  (!g, 0, k)

let random_lemma2 ?(max_v = 8) rng =
  let n = 3 + Prng.int rng (max_v - 2) in
  let sink = n - 1 in
  let g = ref (Graph.add_vertex (Graph.add_vertex Graph.empty 0) sink) in
  for i = 1 to n - 2 do
    let j = i + 1 + Prng.int rng (n - 1 - i) in
    g := Graph.add_edge !g ~src:i ~dst:j (interactions ~max_time:25 rng)
  done;
  let n_src = 1 + Prng.int rng (n - 1) in
  for _ = 1 to n_src do
    let j = 1 + Prng.int rng (n - 1) in
    g := Graph.add_edge !g ~src:0 ~dst:j (interactions ~max_time:25 rng)
  done;
  (!g, 0, sink)

(* --- mutation operators ---------------------------------------------

   Each rewrites interaction payloads only (never the edge structure),
   so DAG-ness and endpoint reachability are preserved and the mutated
   instance stays inside every oracle's domain.  They target the edge
   cases the greedy scan and the LP tie-breaking must agree on. *)

let map_interactions g f =
  let base = List.fold_left Graph.add_vertex Graph.empty (Graph.vertices g) in
  Graph.fold_edges
    (fun src dst is acc -> Graph.add_edge acc ~src ~dst (List.map (f src dst) is))
    g base

(* Collapse a random fraction of timestamps onto a small set of pivot
   times: simultaneous interactions must be handled by the documented
   deterministic order, and an outgoing transfer at time t must not see
   arrivals at t. *)
let duplicate_timestamps rng g =
  let pivots = Array.init 3 (fun _ -> float_of_int (Prng.int rng 20)) in
  map_interactions g (fun _ _ i ->
      if Prng.int rng 3 = 0 then
        Interaction.make ~time:(Prng.choose rng pivots) ~qty:(Interaction.qty i)
      else i)

(* Zero out a random fraction of quantities: zero-quantity interactions
   must not create buffer entries or LP degeneracy discrepancies. *)
let zero_quantities rng g =
  map_interactions g (fun _ _ i ->
      if Prng.int rng 4 = 0 then Interaction.make ~time:(Interaction.time i) ~qty:0.0 else i)

(* Scale a random fraction of quantities to subnormal magnitude:
   probes absolute-vs-relative tolerance confusion in the solvers. *)
let denormal_quantities rng g =
  map_interactions g (fun _ _ i ->
      if Prng.int rng 4 = 0 then
        Interaction.make ~time:(Interaction.time i) ~qty:(Interaction.qty i *. 1e-310)
      else i)

(* Scale a random fraction of quantities up by 1e9: probes pivot
   tolerances and big-M handling at the other end of the scale. *)
let huge_quantities rng g =
  map_interactions g (fun _ _ i ->
      if Prng.int rng 4 = 0 then
        Interaction.make ~time:(Interaction.time i) ~qty:(Interaction.qty i *. 1e9)
      else i)

let mutations =
  [
    ("dup-times", duplicate_timestamps);
    ("zero-qty", zero_quantities);
    ("denormal-qty", denormal_quantities);
    ("huge-qty", huge_quantities);
  ]

(* Self-loops cannot be represented (Graph rejects them at
   construction, the CSV reader skips them), so the corresponding
   "mutation" asserts the rejection contract instead of mutating. *)
let self_loop_rejected g =
  match Graph.vertices g with
  | [] -> true
  | v :: _ -> (
      match Graph.add_interaction g ~src:v ~dst:v (Interaction.make ~time:1.0 ~qty:1.0) with
      | _ -> false
      | exception Invalid_argument _ -> true)

let families : (string * (Prng.t -> Graph.t * Graph.vertex * Graph.vertex)) list =
  [
    ("dag", random_dag ?max_v:None ?max_edges:None);
    ("digraph", random_digraph ?max_v:None ?max_edges:None ?max_inter:None);
    ("chain", random_chain ?max_len:None ?max_inter:None);
    ("lemma2", random_lemma2 ?max_v:None);
  ]

let case rng =
  let family, gen = Prng.choose rng (Array.of_list families) in
  let graph, source, sink = gen rng in
  let n_muts = Prng.int rng 3 in
  let graph, mutations =
    let rec apply g acc k =
      if k = 0 then (g, List.rev acc)
      else
        let name, mut = Prng.choose rng (Array.of_list mutations) in
        apply (mut rng g) (name :: acc) (k - 1)
    in
    apply graph [] n_muts
  in
  { graph; source; sink; family; mutations }
