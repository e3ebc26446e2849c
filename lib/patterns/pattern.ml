type t = { name : string; n : int; labels : int array; edges : (int * int) list; sink : int }

let make ~name ~labels ~edges =
  let n = Array.length labels in
  if n = 0 then invalid_arg "Pattern.make: empty pattern";
  List.iter
    (fun (i, j) ->
      if i < 0 || j < 0 || i >= n || j >= n then invalid_arg "Pattern.make: edge out of range";
      if labels.(i) = labels.(j) then
        invalid_arg "Pattern.make: same-label vertices cannot be adjacent")
    edges;
  (* Vertex order must be usable as the enumeration order. *)
  for k = 1 to n - 1 do
    if not (List.exists (fun (i, j) -> (i = k && j < k) || (j = k && i < k)) edges) then
      invalid_arg "Pattern.make: vertex not adjacent to any earlier vertex"
  done;
  (* DAG check (indices need not be topologically ordered in
     principle, but our browse order requires source first; a simple
     cycle check suffices). *)
  let adj = Array.make n [] in
  List.iter (fun (i, j) -> adj.(i) <- j :: adj.(i)) edges;
  let color = Array.make n 0 in
  let rec visit v =
    if color.(v) = 1 then invalid_arg "Pattern.make: pattern has a cycle";
    if color.(v) = 0 then begin
      color.(v) <- 1;
      List.iter visit adj.(v);
      color.(v) <- 2
    end
  in
  for v = 0 to n - 1 do
    visit v
  done;
  (* Flow endpoints are structural: the unique vertex with no incoming
     pattern edge is the source and must be vertex 0 (the browse
     start); the unique vertex with no outgoing edge is the sink
     (which need not be declared last — the DSL allows any order). *)
  let has_in = Array.make n false and has_out = Array.make n false in
  List.iter
    (fun (i, j) ->
      has_out.(i) <- true;
      has_in.(j) <- true)
    edges;
  let sources = List.filter (fun v -> not has_in.(v)) (List.init n Fun.id) in
  let sinks = List.filter (fun v -> not has_out.(v)) (List.init n Fun.id) in
  if sources <> [ 0 ] then
    invalid_arg "Pattern.make: vertex 0 must be the unique source (no incoming edges)";
  let sink =
    match sinks with
    | [ s ] -> s
    | _ -> invalid_arg "Pattern.make: pattern must have exactly one sink (no outgoing edges)"
  in
  { name; n; labels; edges; sink }

let source _ = 0
let sink t = t.sink
let is_cyclic_shape t = t.labels.(0) = t.labels.(t.sink)

type mapping = Compact.vertex array

exception Stop

(* Precomputed per-step plan: [lab] is the dense label id of vertex k
   (indexing a small assignment array during the walk) and [adjacent]
   collects every edge constraint between k and an earlier vertex.
   For a fresh vertex the candidate generator is chosen among
   [adjacent] at browse time, from whichever already-bound endpoint
   has the smaller adjacency row. *)
type step = {
  fresh : bool; (* k's label was not assigned by an earlier vertex *)
  lab : int; (* dense label id in [0 .. n_labels-1] *)
  adjacent : (int * [ `Edge_to_k | `Edge_from_k ]) list;
}

let plan t =
  let label_ids = Hashtbl.create 8 in
  let steps =
    Array.init t.n (fun k ->
        let fresh = not (Hashtbl.mem label_ids t.labels.(k)) in
        if fresh then Hashtbl.add label_ids t.labels.(k) (Hashtbl.length label_ids);
        let lab = Hashtbl.find label_ids t.labels.(k) in
        let adjacent =
          List.filter_map
            (fun (i, j) ->
              if i = k && j < k then Some (j, `Edge_from_k)
              else if j = k && i < k then Some (i, `Edge_to_k)
              else None)
            t.edges
        in
        { fresh; lab; adjacent })
  in
  (steps, Hashtbl.length label_ids)

let browse ?should_stop ?anchor net t f =
  let steps, n_labels = plan t in
  (* Poll the stop condition every so many candidate probes: cheap
     enough for hot loops, frequent enough for time budgets. *)
  let probes = ref 0 in
  let poll () =
    match should_stop with
    | None -> ()
    | Some stop ->
        incr probes;
        if !probes land 0xFFF = 0 && stop () then raise Stop
  in
  let mu = Array.make t.n (-1) in
  (* rep.(l) is the graph vertex currently bound to dense label l. *)
  let rep = Array.make n_labels (-1) in
  let distinct v =
    let ok = ref true in
    for l = 0 to n_labels - 1 do
      if rep.(l) = v then ok := false
    done;
    !ok
  in
  let check v (j, dir) =
    match dir with
    | `Edge_from_k -> Compact.find_edge net ~src:v ~dst:mu.(j) <> None
    | `Edge_to_k -> Compact.find_edge net ~src:mu.(j) ~dst:v <> None
  in
  (* Verify every adjacency constraint except the (physically equal)
     cell that generated the candidate. *)
  let rec checks_ok v skip = function
    | [] -> true
    | c :: rest -> (c == skip || check v c) && checks_ok v skip rest
  in
  let no_skip = (-1, `Edge_to_k) in
  let rec go k =
    if k = t.n then begin
      (* Unmasked stop check before every complete binding: the
         callback is the expensive step (typically a per-instance flow
         computation), so an expired budget must stop here, between
         bindings — not 4096 masked probes later.  This bounds deadline
         overshoot by a single candidate step. *)
      (match should_stop with Some stop when stop () -> raise Stop | _ -> ());
      f mu
    end
    else begin
      let step = steps.(k) in
      if not step.fresh then begin
        (* Same label as an earlier vertex: the binding is forced and
           every adjacent constraint must be verified. *)
        let v = rep.(step.lab) in
        if checks_ok v no_skip step.adjacent then begin
          mu.(k) <- v;
          go (k + 1);
          mu.(k) <- -1
        end
      end
      else begin
        let try_candidate gen v =
          poll ();
          if distinct v && checks_ok v gen step.adjacent then begin
            mu.(k) <- v;
            rep.(step.lab) <- v;
            go (k + 1);
            rep.(step.lab) <- -1;
            mu.(k) <- -1
          end
        in
        let generate ((j, dir) as g) =
          match dir with
          | `Edge_to_k -> Compact.iter_succs net mu.(j) (fun v _ -> try_candidate g v)
          | `Edge_from_k -> Compact.iter_preds net mu.(j) (fun v _ -> try_candidate g v)
        in
        match step.adjacent with
        | [] -> (
            (* Only k = 0: the enumeration root. *)
            match anchor with
            | Some a -> if a >= 0 && a < Compact.n_vertices net then try_candidate no_skip a
            | None ->
                for v = 0 to Compact.n_vertices net - 1 do
                  try_candidate no_skip v
                done)
        | [ g ] -> generate g
        | first :: rest ->
            let row_size (j, dir) =
              match dir with
              | `Edge_to_k -> Compact.out_degree net mu.(j)
              | `Edge_from_k -> Compact.in_degree net mu.(j)
            in
            generate
              (List.fold_left (fun b c -> if row_size c < row_size b then c else b) first rest)
      end
    end
  in
  (try go 0 with Stop -> ())

let instance_edges net t mu =
  List.map
    (fun (i, j) ->
      match Compact.find_edge net ~src:mu.(i) ~dst:mu.(j) with
      | Some e -> e
      | None -> invalid_arg "Pattern.instance_edges: mapping is not an instance")
    t.edges

let instance_flow net t mu =
  let eids = instance_edges net t mu in
  let g = Compact.edges_to_graph net eids in
  if is_cyclic_shape t then begin
    let ep = Tin_core.Endpoints.split g ~vertex:(Compact.label net mu.(0)) in
    Tin_core.Pipeline.max_flow ep.Tin_core.Endpoints.graph ~source:ep.Tin_core.Endpoints.source
      ~sink:ep.Tin_core.Endpoints.sink
  end
  else
    Tin_core.Pipeline.max_flow g
      ~source:(Compact.label net mu.(0))
      ~sink:(Compact.label net mu.(sink t))

(* --- textual pattern descriptions --- *)

let of_string text =
  let fail fmt = Printf.ksprintf invalid_arg ("Pattern.of_string: " ^^ fmt) in
  let names = Hashtbl.create 8 in
  (* vertex name -> index *)
  let order = ref [] in
  let intern name =
    if name = "" then fail "empty vertex name";
    String.iter
      (fun c ->
        if not ((c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') || c = '_' || c = '\'')
        then fail "invalid character %C in vertex name %S" c name)
      name;
    match Hashtbl.find_opt names name with
    | Some i -> i
    | None ->
        let i = Hashtbl.length names in
        Hashtbl.add names name i;
        order := name :: !order;
        i
  in
  let parse_edge part =
    match String.index_opt part '-' with
    | Some i when i + 1 < String.length part && part.[i + 1] = '>' ->
        let src = String.trim (String.sub part 0 i) in
        let dst = String.trim (String.sub part (i + 2) (String.length part - i - 2)) in
        (* Intern left to right: vertex order (and hence the flow
           source, vertex 0) follows reading order. *)
        let si = intern src in
        let di = intern dst in
        (si, di)
    | _ -> fail "expected \"src->dst\" in %S" part
  in
  let edges =
    String.split_on_char ',' text
    |> List.map String.trim
    |> List.filter (fun s -> s <> "")
    |> List.map parse_edge
  in
  if edges = [] then fail "no edges";
  let vertex_names = Array.of_list (List.rev !order) in
  (* The label is the name with primes stripped. *)
  let strip name =
    let n = ref (String.length name) in
    while !n > 0 && name.[!n - 1] = '\'' do
      decr n
    done;
    if !n = 0 then fail "vertex name %S is only primes" name;
    String.sub name 0 !n
  in
  let label_ids = Hashtbl.create 8 in
  let labels =
    Array.map
      (fun name ->
        let l = strip name in
        match Hashtbl.find_opt label_ids l with
        | Some i -> i
        | None ->
            let i = Hashtbl.length label_ids in
            Hashtbl.add label_ids l i;
            i)
      vertex_names
  in
  make ~name:text ~labels ~edges

let to_string t =
  (* Canonical names: label k -> letter, with primes distinguishing
     repeated vertices of the same label. *)
  let letter l =
    if l < 26 then String.make 1 (Char.chr (Char.code 'a' + l)) else Printf.sprintf "v%d" l
  in
  let seen = Hashtbl.create 8 in
  let names =
    Array.map
      (fun l ->
        let count = Option.value ~default:0 (Hashtbl.find_opt seen l) in
        Hashtbl.replace seen l (count + 1);
        letter l ^ String.make count '\'')
      t.labels
  in
  t.edges
  |> List.map (fun (i, j) -> Printf.sprintf "%s->%s" names.(i) names.(j))
  |> String.concat ", "
