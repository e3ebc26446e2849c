module Prng = Tin_util.Prng

let interaction_batch rng spec ~n =
  List.init n (fun _ ->
      Interaction.make
        ~time:(Prng.float rng spec.Spec.horizon)
        ~qty:(Prng.log_normal rng ~mu:spec.Spec.qty_mu ~sigma:spec.Spec.qty_sigma))

let edge_interaction_count rng spec =
  1 + int_of_float (Prng.exponential rng ~mean:spec.Spec.extra_interactions_mean)

(* Planted cycles carry time-increasing interactions so quantity can
   actually circulate back to the seed — a purely random cycle would
   almost never be flow-positive, and Section 6.3's experiments would
   be vacuous. *)
let plant_cycle rng spec ~seed_vertex ~edges =
  let n = spec.Spec.n_vertices in
  let len = if Prng.bool rng then 2 else 3 in
  let distinct_from excl =
    let rec draw () =
      let v = Prng.int rng n in
      if List.mem v excl then draw () else v
    in
    draw ()
  in
  let path =
    if len = 2 then [ seed_vertex; distinct_from [ seed_vertex ]; seed_vertex ]
    else begin
      let b = distinct_from [ seed_vertex ] in
      let c = distinct_from [ seed_vertex; b ] in
      [ seed_vertex; b; c; seed_vertex ]
    end
  in
  let t0 = Prng.float rng (spec.Spec.horizon *. 0.8) in
  let step = spec.Spec.horizon *. 0.05 in
  let qty () = Prng.log_normal rng ~mu:spec.Spec.qty_mu ~sigma:spec.Spec.qty_sigma in
  let rec wire t = function
    | a :: (b :: _ as rest) ->
        let i = Interaction.make ~time:t ~qty:(qty ()) in
        edges := (a, b, [ i ]) :: !edges;
        wire (t +. (step *. (0.5 +. Prng.uniform rng))) rest
    | _ -> ()
  in
  wire t0 path

let generate ~seed spec =
  let rng = Prng.create ~seed in
  let n = spec.Spec.n_vertices in
  let edges = ref [] in
  (* Base edges with Zipf endpoints; vertex popularity is randomised by
     hashing the Zipf rank through a fixed permutation seed so hubs are
     not always vertices 0..k. *)
  let perm = Array.init n Fun.id in
  Prng.shuffle rng perm;
  let draw_vertex () = perm.(Prng.zipf rng ~n ~s:spec.Spec.zipf_exponent) in
  for _ = 1 to spec.Spec.n_base_edges do
    let src = draw_vertex () in
    let dst = ref (draw_vertex ()) in
    while !dst = src do
      dst := draw_vertex ()
    done;
    let dst = !dst in
    let is = interaction_batch rng spec ~n:(edge_interaction_count rng spec) in
    edges := (src, dst, is) :: !edges;
    if Prng.uniform rng < spec.Spec.reciprocity then begin
      let back = interaction_batch rng spec ~n:(edge_interaction_count rng spec) in
      edges := (dst, src, back) :: !edges
    end
  done;
  (* Planted cycles around dedicated seed vertices. *)
  (* Most seeds carry a single short cycle (their subgraph is then a
     chain — greedy-soluble, the paper's dominant Class A); a minority
     get several overlapping cycles, which is what produces the harder
     Class B/C subgraphs. *)
  for _ = 1 to spec.Spec.n_cycle_seeds do
    let seed_vertex = Prng.int rng n in
    let cycles = if Prng.uniform rng < 0.3 then 2 + Prng.int rng 3 else 1 in
    for _ = 1 to cycles do
      plant_cycle rng spec ~seed_vertex ~edges
    done
  done;
  (* Make sure every vertex id exists even if it drew no edge, by
     adding one touch edge per orphan: keeps vertex counts faithful to
     the spec.  Orphans get a single cheap outgoing interaction to a
     hub. *)
  let touched = Array.make n false in
  List.iter
    (fun (s, d, _) ->
      touched.(s) <- true;
      touched.(d) <- true)
    !edges;
  Array.iteri
    (fun v seen ->
      if not seen then begin
        let dst = ref (draw_vertex ()) in
        while !dst = v do
          dst := draw_vertex ()
        done;
        edges := (v, !dst, interaction_batch rng spec ~n:1) :: !edges
      end)
    touched;
  Compact.of_entries
    (List.concat_map (fun (s, d, is) -> List.map (fun i -> (s, d, i)) is) !edges)

type stats = { n_vertices : int; n_edges : int; n_interactions : int; avg_qty : float }

let stats net =
  let total = ref 0.0 in
  for e = 0 to Compact.n_edges net - 1 do
    total := !total +. Compact.edge_total_qty net e
  done;
  let ni = Compact.n_interactions net in
  {
    n_vertices = Compact.n_vertices net;
    n_edges = Compact.n_edges net;
    n_interactions = ni;
    avg_qty = (if ni = 0 then 0.0 else !total /. float_of_int ni);
  }
