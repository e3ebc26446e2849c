module IntMap = Map.Make (Int)
module IntSet = Set.Make (Int)

type vertex = int

(* [out] and [in_] mirror each other: the interaction list stored under
   out.(v).(u) is the same value as in_.(u).(v).  Every update goes
   through helpers that maintain both sides plus the cached counters. *)
type t = {
  verts : IntSet.t;
  out : Interaction.t list IntMap.t IntMap.t;
  in_ : Interaction.t list IntMap.t IntMap.t;
  n_edges : int;
  n_interactions : int;
}

let empty =
  { verts = IntSet.empty; out = IntMap.empty; in_ = IntMap.empty; n_edges = 0; n_interactions = 0 }

let adj m v = match IntMap.find_opt v m with Some a -> a | None -> IntMap.empty

let mem_vertex t v = IntSet.mem v t.verts
let mem_edge t ~src ~dst = IntMap.mem dst (adj t.out src)

let edge t ~src ~dst =
  match IntMap.find_opt dst (adj t.out src) with Some is -> is | None -> []

let add_vertex t v = if mem_vertex t v then t else { t with verts = IntSet.add v t.verts }

let update_adj m v u value =
  let a = adj m v in
  let a = match value with None -> IntMap.remove u a | Some is -> IntMap.add u is a in
  if IntMap.is_empty a then IntMap.remove v m else IntMap.add v a m

let set_edge t ~src ~dst interactions =
  let old = edge t ~src ~dst in
  let old_n = List.length old in
  match interactions with
  | [] ->
      if old_n = 0 && not (mem_edge t ~src ~dst) then t
      else
        {
          t with
          out = update_adj t.out src dst None;
          in_ = update_adj t.in_ dst src None;
          n_edges = (t.n_edges - if mem_edge t ~src ~dst then 1 else 0);
          n_interactions = t.n_interactions - old_n;
        }
  | _ ->
      let is = Interaction.sort interactions in
      let existed = mem_edge t ~src ~dst in
      {
        verts = IntSet.add src (IntSet.add dst t.verts);
        out = update_adj t.out src dst (Some is);
        in_ = update_adj t.in_ dst src (Some is);
        n_edges = (t.n_edges + if existed then 0 else 1);
        n_interactions = t.n_interactions - old_n + List.length is;
      }

let add_edge t ~src ~dst interactions =
  if src = dst then invalid_arg "Graph.add_edge: self-loop";
  let t = add_vertex (add_vertex t src) dst in
  match interactions with
  | [] -> t
  | _ -> set_edge t ~src ~dst (List.rev_append (List.rev (edge t ~src ~dst)) interactions)

let add_interaction t ~src ~dst i = add_edge t ~src ~dst [ i ]

let remove_edge t ~src ~dst = set_edge t ~src ~dst []

let remove_vertex t v =
  if not (mem_vertex t v) then t
  else begin
    let t = IntMap.fold (fun dst _ t -> remove_edge t ~src:v ~dst) (adj t.out v) t in
    let t = IntMap.fold (fun src _ t -> remove_edge t ~src ~dst:v) (adj t.in_ v) t in
    { t with verts = IntSet.remove v t.verts }
  end

let of_edges descriptions =
  List.fold_left
    (fun t (src, dst, pairs) -> add_edge t ~src ~dst (Interaction.of_pairs pairs))
    empty descriptions

(* The edges arrive in (src, dst) order, so each out-row is one run of
   consecutive edges and goes into [out] once, complete.  An in-row
   grows across the whole pass.  Nothing is sorted, and the vertex set
   is built once, at the end. *)
let of_sorted_edges ~vertices edges =
  let fail what = invalid_arg ("Graph.of_sorted_edges: " ^ what) in
  let out = ref IntMap.empty and row = ref IntMap.empty in
  let last_src = ref min_int and last_dst = ref min_int in
  let in_rows = Hashtbl.create 16 in
  let n_edges = ref 0 and n_interactions = ref 0 in
  let end_row () = if not (IntMap.is_empty !row) then out := IntMap.add !last_src !row !out in
  Seq.iter
    (fun (src, dst, is) ->
      if src = dst then fail "self-loop";
      if src < !last_src || (src = !last_src && dst <= !last_dst) then
        fail "edges not in (src, dst) order";
      if List.is_empty is || not (Interaction.is_sorted is) then
        fail "sequence empty or not in time order";
      if src <> !last_src then begin
        end_row ();
        row := IntMap.empty
      end;
      last_src := src;
      last_dst := dst;
      row := IntMap.add dst is !row;
      (match Hashtbl.find_opt in_rows dst with
      | Some col -> col := IntMap.add src is !col
      | None -> Hashtbl.add in_rows dst (ref (IntMap.singleton src is)));
      incr n_edges;
      n_interactions := !n_interactions + List.length is)
    edges;
  end_row ();
  let in_ = Hashtbl.fold (fun dst col acc -> IntMap.add dst !col acc) in_rows IntMap.empty in
  let keys m acc = IntMap.fold (fun v _ acc -> v :: acc) m acc in
  {
    verts = IntSet.of_list (keys !out (keys in_ vertices));
    out = !out;
    in_;
    n_edges = !n_edges;
    n_interactions = !n_interactions;
  }

let vertices t = IntSet.elements t.verts
let out_edges t v = IntMap.bindings (adj t.out v)
let in_edges t v = IntMap.bindings (adj t.in_ v)
let succs t v = List.map fst (out_edges t v)
let preds t v = List.map fst (in_edges t v)
let out_degree t v = IntMap.cardinal (adj t.out v)
let in_degree t v = IntMap.cardinal (adj t.in_ v)
let n_vertices t = IntSet.cardinal t.verts
let n_edges t = t.n_edges
let n_interactions t = t.n_interactions

let sources t = List.filter (fun v -> in_degree t v = 0) (vertices t)
let sinks t = List.filter (fun v -> out_degree t v = 0) (vertices t)

let fold_edges f t acc =
  IntMap.fold (fun src a acc -> IntMap.fold (fun dst is acc -> f src dst is acc) a acc) t.out acc

let iter_edges f t = fold_edges (fun src dst is () -> f src dst is) t ()

let scan_compare (s1, d1, i1) (s2, d2, i2) =
  match Interaction.compare i1 i2 with
  | 0 -> ( match Int.compare s1 s2 with 0 -> Int.compare d1 d2 | c -> c)
  | c -> c

let interactions_sorted t =
  let all =
    fold_edges (fun src dst is acc -> List.fold_left (fun acc i -> (src, dst, i) :: acc) acc is) t []
  in
  let a = Array.of_list all in
  Array.sort scan_compare a;
  a

let total_qty t = fold_edges (fun _ _ is acc -> acc +. Interaction.total_qty is) t 0.0

let equal a b =
  IntSet.equal a.verts b.verts
  && IntMap.equal (IntMap.equal (List.equal Interaction.equal)) a.out b.out

let pp ppf t =
  Format.fprintf ppf "@[<v>";
  iter_edges
    (fun src dst is ->
      Format.fprintf ppf "%d -> %d: %a@," src dst Interaction.pp_list is)
    t;
  Format.fprintf ppf "@]"
