let restrict ?(from_time = neg_infinity) ?(until = infinity) g =
  Graph.fold_edges
    (fun src dst is acc ->
      let kept =
        List.filter
          (fun i ->
            let t = Interaction.time i in
            t >= from_time && t <= until)
          is
      in
      Graph.set_edge acc ~src ~dst kept)
    g g

let max_flow ?from_time ?until g ~source ~sink =
  Pipeline.max_flow (restrict ?from_time ?until g) ~source ~sink

let greedy_profile g ~source ~sink =
  let arrivals = Greedy.arrivals_at_sink g ~source ~sink in
  let _, steps =
    List.fold_left
      (fun (total, acc) i ->
        let total = total +. Interaction.qty i in
        (total, (Interaction.time i, total) :: acc))
      (0.0, []) arrivals
  in
  List.rev steps

let max_flow_profile ?points g ~source ~sink =
  let points =
    match points with
    | Some ps -> List.sort_uniq Float.compare ps
    | None ->
        (* The value changes only when an interaction into the sink
           becomes available. *)
        Graph.in_edges g sink
        |> List.concat_map (fun (_, is) -> List.map Interaction.time is)
        |> List.sort_uniq Float.compare
  in
  List.map (fun tau -> (tau, max_flow ~until:tau g ~source ~sink)) points
