type result = { graph : Graph.t; chains_reduced : int; removed_vertices : int }

(* Find a maximal chain s → v1 → … → vk with every interior vertex of
   in- and out-degree 1 (and distinct from the sink).  Returns the
   interior vertices and the terminal vertex, or None. *)
let find_chain g ~source ~sink =
  let rec extend interior v =
    (* [v] is a candidate interior vertex (already known to have
       in-degree 1). *)
    if v = sink || Graph.out_degree g v <> 1 || Graph.in_degree g v <> 1 then
      (List.rev interior, v)
    else
      match Graph.succs g v with
      | [ u ] -> extend (v :: interior) u
      | _ -> assert false
  in
  let candidate v1 =
    if v1 = sink || Graph.in_degree g v1 <> 1 || Graph.out_degree g v1 <> 1 then None
    else
      match extend [] v1 with
      | [], _ -> None (* v1 itself ended the chain: nothing to collapse *)
      | interior, last -> Some (interior, last)
  in
  List.find_map candidate (Graph.succs g source)

let run g0 ~source ~sink =
  if source = sink then invalid_arg "Simplify.run: source = sink";
  if not (Topo.is_dag g0) then invalid_arg "Simplify.run: graph has a cycle";
  let rec loop g chains removed =
    match find_chain g ~source ~sink with
    | None -> { graph = g; chains_reduced = chains; removed_vertices = removed }
    | Some (interior, last) ->
        (* Greedy flow over the chain edges alone; arrivals at [last]
           define the replacement edge (Lemma 3). *)
        let path = (source :: interior) @ [ last ] in
        let rec chain_graph acc = function
          | a :: (b :: _ as rest) ->
              chain_graph (Graph.add_edge acc ~src:a ~dst:b (Graph.edge g ~src:a ~dst:b)) rest
          | _ -> acc
        in
        let cg = chain_graph Graph.empty path in
        let arrivals = Greedy.arrivals_at_sink cg ~source ~sink:last in
        let g =
          List.fold_left (fun g v -> Graph.remove_vertex g v) g interior
        in
        (* Interior removal also removed (source, v1) and (v_j, last);
           merge the replacement interactions into any existing
           (source, last) edge. *)
        let g = Graph.add_edge g ~src:source ~dst:last arrivals in
        loop g (chains + 1) (removed + List.length interior)
  in
  loop g0 0 0
