(* Deterministic random pattern-test inputs.  Both take an explicit
   PRNG so qcheck can drive them from an integer seed (seeds are
   reported on failure and reproduce exactly).  The flow-problem
   families (DAGs, digraphs, chains, Lemma-2 graphs) are
   [Tin_verify.Gen]'s, shared with the fuzzer. *)

module Prng = Tin_util.Prng
module Pattern = Tin_patterns.Pattern

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
