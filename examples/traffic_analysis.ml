(* Network-traffic flow analysis on a botnet-shaped network — the
   paper's CTU-13 use case: how many bytes could have travelled from a
   suspected command-and-control host to an exfiltration endpoint,
   possibly through intermediate hops?

   This example builds a CTU-shaped traffic network, picks the two
   busiest hosts as source and sink, carves out the sub-network of
   hosts on short source-to-sink paths, and compares greedy and
   maximum byte flow between them.  It also demonstrates the synthetic
   source/sink construction (Figure 4) by measuring the flow from a
   *set* of bot hosts simultaneously.

   Run with:  dune exec examples/traffic_analysis.exe *)

module Spec = Tin_datasets.Spec
module Generator = Tin_datasets.Generator
module Pipeline = Tin_core.Pipeline
module Endpoints = Tin_core.Endpoints
module Table = Tin_util.Table

(* Union of all simple paths (<= 3 hops) from [src] to [dst]. *)
let path_subgraph net ~src ~dst =
  let edges = ref [] in
  Compact.iter_succs net src (fun a e1 ->
      if a = dst then edges := [ e1 ] :: !edges
      else
        Compact.iter_succs net a (fun b e2 ->
            if b = dst && a <> src then edges := [ e1; e2 ] :: !edges
            else if b <> src && b <> a then
              Compact.iter_succs net b (fun c e3 ->
                  if c = dst then edges := [ e1; e2; e3 ] :: !edges)));
  List.concat !edges

let () =
  let spec = Spec.scaled ~factor:0.2 Spec.ctu13 in
  let net = Generator.generate ~seed:1313 spec in
  let stats = Generator.stats net in
  Printf.printf "Traffic network: %d hosts, %d connections, %d packets/flows\n\n"
    stats.Generator.n_vertices stats.Generator.n_edges stats.Generator.n_interactions;

  (* The two busiest hosts (highest total degree). *)
  let n = Compact.n_vertices net in
  let by_degree =
    List.init n (fun v -> (v, Compact.out_degree net v + Compact.in_degree net v))
    |> List.sort (fun (_, a) (_, b) -> compare b a)
  in
  (* Skip the very hottest hubs: their 3-hop neighbourhood is most of
     the network.  Moderately busy hosts give a focused sub-network,
     like the paper's extracted subgraphs. *)
  match List.filteri (fun i _ -> i >= 4 && i < 6) by_degree with
  | [ (c2, _); (exfil, _) ] ->
      Printf.printf "Suspected C2 host: %d; suspected exfiltration endpoint: %d\n" c2 exfil;
      let eids = path_subgraph net ~src:c2 ~dst:exfil in
      if eids = [] then print_endline "No short path between them; nothing to analyse."
      else begin
        let g = Compact.edges_to_graph net eids in
        let g = Topo.dagify g ~root:(Compact.label net c2) in
        let source = Compact.label net c2 and sink = Compact.label net exfil in
        Printf.printf "Sub-network on <=3-hop paths: %d hosts, %d edges, %d transfers\n\n"
          (Graph.n_vertices g) (Graph.n_edges g) (Graph.n_interactions g);
        let greedy = Tin_core.Greedy.flow g ~source ~sink in
        (* The sub-network can be large; the time-expanded Dinic
           reduction (Section 4.2.1) scales where the LP baseline would
           not. *)
        let best = Pipeline.compute Pipeline.Time_expanded g ~source ~sink in
        Table.print ~title:"Byte flow from C2 to exfiltration endpoint"
          ~header:[ "Model"; "Bytes" ]
          [
            [ "Greedy transfer (Def. 4)"; Table.fmt_flow greedy ];
            [ "Maximum flow (Sec. 4.2)"; Table.fmt_flow best ];
          ];
        print_newline ()
      end;
      (* Multi-source variant: total flow out of the top-5 talkers into
         the exfiltration endpoint, via the synthetic super-source. *)
      let bots =
        List.filteri (fun i _ -> i >= 4 && i < 9) by_degree |> List.map fst
        |> List.filter (fun v -> v <> exfil)
      in
      let eids = List.concat_map (fun b -> path_subgraph net ~src:b ~dst:exfil) bots in
      if eids <> [] then begin
        let g = Compact.edges_to_graph net eids in
        (* Wire every bot to one super-source, exactly like the
           synthetic-source construction of the paper's Figure 4: a
           single interaction at time -inf with infinite quantity. *)
        let bots_labels =
          List.map (Compact.label net) bots |> List.filter (Graph.mem_vertex g)
        in
        let super = 1 + List.fold_left max 0 (Graph.vertices g) in
        let g =
          List.fold_left
            (fun g b ->
              Graph.add_edge g ~src:super ~dst:b
                [ Interaction.unchecked ~time:neg_infinity ~qty:infinity ])
            g bots_labels
        in
        let g = Topo.dagify g ~root:super in
        Printf.printf "Botnet-wide: flow from %d suspected bots into host %d: %s bytes\n"
          (List.length bots_labels) (Compact.label net exfil)
          (Table.fmt_flow
             (Pipeline.compute Pipeline.Time_expanded g ~source:super
                ~sink:(Compact.label net exfil)))
      end
  | _ -> print_endline "Network too small."
