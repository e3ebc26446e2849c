module IntMap = Map.Make (Int)

let sort g =
  (* Kahn's algorithm with a sorted frontier: deterministic order so
     preprocessing traces are reproducible. *)
  let module S = Set.Make (Int) in
  let indeg =
    List.fold_left (fun m v -> IntMap.add v (Graph.in_degree g v) m) IntMap.empty (Graph.vertices g)
  in
  let frontier =
    IntMap.fold (fun v d s -> if d = 0 then S.add v s else s) indeg S.empty
  in
  let rec go frontier indeg acc n =
    match S.min_elt_opt frontier with
    | None -> if n = Graph.n_vertices g then Some (List.rev acc) else None
    | Some v ->
        let frontier = S.remove v frontier in
        let frontier, indeg =
          List.fold_left
            (fun (f, ind) u ->
              let d = IntMap.find u ind - 1 in
              let ind = IntMap.add u d ind in
              if d = 0 then (S.add u f, ind) else (f, ind))
            (frontier, indeg) (Graph.succs g v)
        in
        go frontier indeg (v :: acc) (n + 1)
  in
  go frontier indeg [] 0

let sort_exn g =
  match sort g with
  | Some order -> order
  | None -> invalid_arg "Topo.sort_exn: graph has a cycle"

let is_dag g = Option.is_some (sort g)

let reachable_from g start =
  let rec go seen = function
    | [] -> seen
    | v :: rest ->
        if IntMap.mem v seen then go seen rest
        else go (IntMap.add v () seen) (List.rev_append (Graph.succs g v) rest)
  in
  go IntMap.empty [ start ]

let reaches g v u = IntMap.mem u (reachable_from g v)

let dagify g ~root =
  (* Iterative DFS with tri-state colouring; an edge into a grey vertex
     is a back edge and gets dropped.  The DFS visits successors in
     increasing vertex order for determinism. *)
  let color = Hashtbl.create 64 in
  (* 1 = on stack (grey), 2 = done (black); absent = white *)
  let removed = ref [] in
  let rec visit v =
    Hashtbl.replace color v 1;
    List.iter
      (fun u ->
        match Hashtbl.find_opt color u with
        | Some 1 -> removed := (v, u) :: !removed
        | Some _ -> ()
        | None -> visit u)
      (Graph.succs g v);
    Hashtbl.replace color v 2
  in
  if Graph.mem_vertex g root then visit root;
  List.iter (fun v -> if not (Hashtbl.mem color v) then visit v) (Graph.vertices g);
  List.fold_left (fun g (src, dst) -> Graph.remove_edge g ~src ~dst) g !removed
