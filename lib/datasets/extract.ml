type problem = {
  seed : int;
  graph : Graph.t;
  source : Graph.vertex;
  sink : Graph.vertex;
  n_interactions : int;
}

module Endpoints = Tin_core.Endpoints

let cycle_edges net ~seed =
  (* Edge ids of every 2-hop (seed→a→seed) and 3-hop (seed→a→b→seed)
     cycle through the seed. *)
  let acc = ref [] in
  Compact.iter_succs net seed (fun a e_sa ->
      if a <> seed then begin
        (match Compact.find_edge net ~src:a ~dst:seed with
        | Some e_as -> acc := e_sa :: e_as :: !acc
        | None -> ());
        Compact.iter_succs net a (fun b e_ab ->
            if b <> seed && b <> a then
              match Compact.find_edge net ~src:b ~dst:seed with
              | Some e_bs -> acc := e_sa :: e_ab :: e_bs :: !acc
              | None -> ())
      end);
  !acc

let subgraph_of_seed net ~seed ~max_interactions =
  match cycle_edges net ~seed with
  | [] -> None
  | eids ->
      (* Count interactions on the distinct edges first: hub seeds can
         pull in enormous subgraphs that would only be discarded, so
         bail out before materialising them. *)
      let seen = Hashtbl.create 64 in
      let count = ref 0 in
      List.iter
        (fun e ->
          if not (Hashtbl.mem seen e) then begin
            Hashtbl.add seen e ();
            count := !count + Compact.edge_n_inter net e
          end)
        eids;
      if !count > max_interactions then None
      else begin
        let merged = Compact.edges_to_graph net eids in
        let seed_label = Compact.label net seed in
        let ep = Endpoints.split merged ~vertex:seed_label in
        (* Interior back edges (e.g. both a→b and b→a were on cycles)
           would make the DAG passes inapplicable: drop them. *)
        let dag = Topo.dagify ep.Endpoints.graph ~root:ep.Endpoints.source in
        Some
          {
            seed = seed_label;
            graph = dag;
            source = ep.Endpoints.source;
            sink = ep.Endpoints.sink;
            n_interactions = Graph.n_interactions dag;
          }
      end

let extract ?(max_interactions = 2000) ?(max_subgraphs = max_int) net =
  let out = ref [] and count = ref 0 in
  let n = Compact.n_vertices net in
  let v = ref 0 in
  while !count < max_subgraphs && !v < n do
    (match subgraph_of_seed net ~seed:!v ~max_interactions with
    | Some p ->
        out := p :: !out;
        incr count
    | None -> ());
    incr v
  done;
  List.rev !out

type summary = {
  n_subgraphs : int;
  avg_vertices : float;
  avg_edges : float;
  avg_interactions : float;
}

let summarize problems =
  let n = List.length problems in
  if n = 0 then { n_subgraphs = 0; avg_vertices = 0.0; avg_edges = 0.0; avg_interactions = 0.0 }
  else begin
    let fv = float_of_int in
    let sum f = List.fold_left (fun acc p -> acc +. f p) 0.0 problems in
    {
      n_subgraphs = n;
      avg_vertices = sum (fun p -> fv (Graph.n_vertices p.graph)) /. fv n;
      avg_edges = sum (fun p -> fv (Graph.n_edges p.graph)) /. fv n;
      avg_interactions = sum (fun p -> fv p.n_interactions) /. fv n;
    }
  end
