type vertex = int
type edge_id = int

type t = {
  labels : int array;
  label_index : (int, int) Hashtbl.t;
  (* Interaction columns, in global scan order (time, qty, src, dst).
     Compact ids are sorted-label ranks, so ordering by compact id and
     by raw label coincide and the scan order equals the order of
     [Graph.interactions_sorted]. *)
  inter_src : int array;
  inter_dst : int array;
  inter_time : floatarray;
  inter_qty : floatarray;
  (* Permutation of interaction ids grouped by edge: for edge [e],
     [by_edge.(k)] for [k] in [edge_off.(e), edge_off.(e+1)) lists the
     edge's interactions in time order (global indices are ascending
     within a group). *)
  by_edge : int array;
  edge_off : int array;
  edge_src : int array;
  edge_dst : int array;
  (* Edges are sorted by (src, dst), so the out-row of [v] is the
     contiguous edge-id range [out_off.(v), out_off.(v+1)); the in side
     indirects through [in_edge], edge ids sorted by (dst, src). *)
  out_off : int array;
  in_off : int array;
  in_edge : int array;
}

type columns = {
  c_labels : int array;
  c_src : int array;
  c_dst : int array;
  c_time : floatarray;
  c_qty : floatarray;
}

(* Builds the derived indexes over interaction columns already in
   global scan order.  All construction paths funnel through here so
   the adjacency layout cannot diverge between CSV, snapshot and
   in-memory origins. *)
let derive ~labels ~label_index ~inter_src ~inter_dst ~inter_time ~inter_qty =
  let n = Array.length labels and m = Array.length inter_src in
  (* Group interactions by edge with two stable counting passes (by
     dst, then by src): stability over ascending input indices makes
     the result ordered by (src, dst, global index) in O(m + n) — this
     is the snapshot-load hot path, where a comparison sort dominated
     the whole load. *)
  let by_edge =
    let count = Array.make (n + 1) 0 in
    Array.iter (fun d -> count.(d + 1) <- count.(d + 1) + 1) inter_dst;
    for v = 0 to n - 1 do
      count.(v + 1) <- count.(v + 1) + count.(v)
    done;
    let by_dst = Array.make m 0 in
    for k = 0 to m - 1 do
      let d = inter_dst.(k) in
      by_dst.(count.(d)) <- k;
      count.(d) <- count.(d) + 1
    done;
    let count = Array.make (n + 1) 0 in
    Array.iter (fun s -> count.(s + 1) <- count.(s + 1) + 1) inter_src;
    for v = 0 to n - 1 do
      count.(v + 1) <- count.(v + 1) + count.(v)
    done;
    let out = Array.make m 0 in
    Array.iter
      (fun j ->
        let s = inter_src.(j) in
        out.(count.(s)) <- j;
        count.(s) <- count.(s) + 1)
      by_dst;
    out
  in
  (* Edge boundaries: one edge per maximal (src, dst) run. *)
  let m_e = ref 0 in
  for k = 0 to m - 1 do
    if
      k = 0
      || inter_src.(by_edge.(k)) <> inter_src.(by_edge.(k - 1))
      || inter_dst.(by_edge.(k)) <> inter_dst.(by_edge.(k - 1))
    then incr m_e
  done;
  let m_e = !m_e in
  let edge_off = Array.make (m_e + 1) m in
  let edge_src = Array.make m_e 0 and edge_dst = Array.make m_e 0 in
  let e = ref (-1) in
  for k = 0 to m - 1 do
    let j = by_edge.(k) in
    if
      k = 0
      || inter_src.(j) <> inter_src.(by_edge.(k - 1))
      || inter_dst.(j) <> inter_dst.(by_edge.(k - 1))
    then begin
      incr e;
      edge_off.(!e) <- k;
      edge_src.(!e) <- inter_src.(j);
      edge_dst.(!e) <- inter_dst.(j)
    end
  done;
  let out_off = Array.make (n + 1) 0 and in_off = Array.make (n + 1) 0 in
  Array.iter (fun s -> out_off.(s + 1) <- out_off.(s + 1) + 1) edge_src;
  Array.iter (fun d -> in_off.(d + 1) <- in_off.(d + 1) + 1) edge_dst;
  for v = 0 to n - 1 do
    out_off.(v + 1) <- out_off.(v + 1) + out_off.(v);
    in_off.(v + 1) <- in_off.(v + 1) + in_off.(v)
  done;
  (* Counting pass over ascending edge ids: within each destination
     bucket edges arrive in (src, dst) order, i.e. sorted by source. *)
  let in_edge = Array.make m_e 0 in
  let in_pos = Array.copy in_off in
  for eid = 0 to m_e - 1 do
    let d = edge_dst.(eid) in
    in_edge.(in_pos.(d)) <- eid;
    in_pos.(d) <- in_pos.(d) + 1
  done;
  {
    labels;
    label_index;
    inter_src;
    inter_dst;
    inter_time;
    inter_qty;
    by_edge;
    edge_off;
    edge_src;
    edge_dst;
    out_off;
    in_off;
    in_edge;
  }

let index_of_labels labels =
  let label_index = Hashtbl.create (2 * Array.length labels + 1) in
  Array.iteri (fun i l -> Hashtbl.replace label_index l i) labels;
  label_index

(* [entries] as interaction columns over [label_index]'s ids, in
   global scan order. *)
let scan_columns label_index entries =
  let m = List.length entries in
  let tsrc = Array.make m 0 and tdst = Array.make m 0 in
  let ttime = Float.Array.create m and tqty = Float.Array.create m in
  List.iteri
    (fun k (a, b, i) ->
      tsrc.(k) <- Hashtbl.find label_index a;
      tdst.(k) <- Hashtbl.find label_index b;
      Float.Array.set ttime k (Interaction.time i);
      Float.Array.set tqty k (Interaction.qty i))
    entries;
  let perm = Array.init m Fun.id in
  Array.sort
    (fun x y ->
      let c = Float.compare (Float.Array.get ttime x) (Float.Array.get ttime y) in
      if c <> 0 then c
      else
        let c = Float.compare (Float.Array.get tqty x) (Float.Array.get tqty y) in
        if c <> 0 then c
        else
          let c = compare tsrc.(x) tsrc.(y) in
          if c <> 0 then c else compare tdst.(x) tdst.(y))
    perm;
  let inter_src = Array.make m 0 and inter_dst = Array.make m 0 in
  let inter_time = Float.Array.create m and inter_qty = Float.Array.create m in
  Array.iteri
    (fun k j ->
      inter_src.(k) <- tsrc.(j);
      inter_dst.(k) <- tdst.(j);
      Float.Array.set inter_time k (Float.Array.get ttime j);
      Float.Array.set inter_qty k (Float.Array.get tqty j))
    perm;
  (inter_src, inter_dst, inter_time, inter_qty)

let of_entries ?(vertices = []) entries =
  let module IS = Set.Make (Int) in
  let lset = List.fold_left (fun s v -> IS.add v s) IS.empty vertices in
  let lset = List.fold_left (fun s (a, b, _) -> IS.add a (IS.add b s)) lset entries in
  let labels = Array.of_seq (IS.to_seq lset) in
  let label_index = index_of_labels labels in
  let inter_src, inter_dst, inter_time, inter_qty = scan_columns label_index entries in
  derive ~labels ~label_index ~inter_src ~inter_dst ~inter_time ~inter_qty

let merge t entries =
  let novel =
    List.concat_map (fun (a, b, _) -> [ a; b ]) entries
    |> List.filter (fun l -> not (Hashtbl.mem t.label_index l))
    |> List.sort_uniq Int.compare |> Array.of_list
  in
  let n_old = Array.length t.labels and n_new = Array.length novel in
  (* Ids are label ranks: a new label shifts every larger old id, and
     merging the two sorted label arrays gives the shifted ids. *)
  let labels, label_index, src, dst =
    if n_new = 0 then (t.labels, t.label_index, t.inter_src, t.inter_dst)
    else begin
      let labels = Array.make (n_old + n_new) 0 and ids = Array.make n_old 0 in
      let j = ref 0 in
      for v = 0 to n_old - 1 do
        while !j < n_new && novel.(!j) < t.labels.(v) do
          labels.(v + !j) <- novel.(!j);
          incr j
        done;
        ids.(v) <- v + !j;
        labels.(v + !j) <- t.labels.(v)
      done;
      Array.blit novel !j labels (n_old + !j) (n_new - !j);
      let shift = Array.map (Array.get ids) in
      (labels, index_of_labels labels, shift t.inter_src, shift t.inter_dst)
    end
  in
  let bsrc, bdst, btime, bqty = scan_columns label_index entries in
  let m_old = Array.length src and b = Array.length bsrc in
  let inter_src = Array.make (m_old + b) 0 and inter_dst = Array.make (m_old + b) 0 in
  let inter_time = Float.Array.create (m_old + b) and inter_qty = Float.Array.create (m_old + b) in
  (* Does old interaction [i] sort after batch entry [k]? *)
  let after i k =
    let c = Float.compare (Float.Array.get t.inter_time i) (Float.Array.get btime k) in
    let c =
      if c <> 0 then c else Float.compare (Float.Array.get t.inter_qty i) (Float.Array.get bqty k)
    in
    let c = if c <> 0 then c else Int.compare src.(i) bsrc.(k) in
    (if c <> 0 then c else Int.compare dst.(i) bdst.(k)) > 0
  in
  let i = ref 0 and k = ref 0 in
  for o = 0 to m_old + b - 1 do
    if !k < b && (!i = m_old || after !i !k) then begin
      inter_src.(o) <- bsrc.(!k);
      inter_dst.(o) <- bdst.(!k);
      Float.Array.set inter_time o (Float.Array.get btime !k);
      Float.Array.set inter_qty o (Float.Array.get bqty !k);
      incr k
    end
    else begin
      inter_src.(o) <- src.(!i);
      inter_dst.(o) <- dst.(!i);
      Float.Array.set inter_time o (Float.Array.get t.inter_time !i);
      Float.Array.set inter_qty o (Float.Array.get t.inter_qty !i);
      incr i
    end
  done;
  derive ~labels ~label_index ~inter_src ~inter_dst ~inter_time ~inter_qty

let of_graph g =
  let entries =
    Graph.fold_edges
      (fun s d is acc -> List.fold_left (fun acc i -> (s, d, i) :: acc) acc is)
      g []
  in
  of_entries ~vertices:(Graph.vertices g) entries

(* --- accessors ---------------------------------------------------- *)

let n_vertices t = Array.length t.labels
let n_edges t = Array.length t.edge_src
let n_interactions t = Array.length t.inter_src
let label t v = t.labels.(v)
let vertex_of_label t l = Hashtbl.find_opt t.label_index l
let out_degree t v = t.out_off.(v + 1) - t.out_off.(v)
let in_degree t v = t.in_off.(v + 1) - t.in_off.(v)

let inter_time t k = Float.Array.get t.inter_time k
let inter_qty t k = Float.Array.get t.inter_qty k

let edge_src t e = t.edge_src.(e)
let edge_dst t e = t.edge_dst.(e)
let edge_n_inter t e = t.edge_off.(e + 1) - t.edge_off.(e)
let edge_inter t e k = t.by_edge.(t.edge_off.(e) + k)

let edge_interactions t e =
  List.init (edge_n_inter t e) (fun k ->
      let j = edge_inter t e k in
      Interaction.unchecked ~time:(inter_time t j) ~qty:(inter_qty t j))

let edge_total_qty t e =
  let acc = ref 0.0 in
  for k = t.edge_off.(e) to t.edge_off.(e + 1) - 1 do
    acc := !acc +. Float.Array.get t.inter_qty t.by_edge.(k)
  done;
  !acc

let iter_succs t v f =
  for e = t.out_off.(v) to t.out_off.(v + 1) - 1 do
    f t.edge_dst.(e) e
  done

let iter_preds t v f =
  for k = t.in_off.(v) to t.in_off.(v + 1) - 1 do
    let e = t.in_edge.(k) in
    f t.edge_src.(e) e
  done

let find_edge t ~src ~dst =
  let lo = ref t.out_off.(src) and hi = ref (t.out_off.(src + 1) - 1) in
  let found = ref None in
  while !found = None && !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let d = t.edge_dst.(mid) in
    if d = dst then found := Some mid else if d < dst then lo := mid + 1 else hi := mid - 1
  done;
  !found

let has_self_loops t =
  let rec go e = e < n_edges t && (t.edge_src.(e) = t.edge_dst.(e) || go (e + 1)) in
  go 0

let edges_to_graph t eids =
  let seen = Hashtbl.create 16 in
  List.fold_left
    (fun g e ->
      if Hashtbl.mem seen e then g
      else begin
        Hashtbl.add seen e ();
        Graph.add_edge g ~src:t.labels.(t.edge_src.(e)) ~dst:t.labels.(t.edge_dst.(e))
          (edge_interactions t e)
      end)
    Graph.empty eids

let to_graph t =
  let g = ref Graph.empty in
  Array.iter (fun l -> g := Graph.add_vertex !g l) t.labels;
  for e = 0 to n_edges t - 1 do
    g :=
      Graph.add_edge !g
        ~src:t.labels.(t.edge_src.(e))
        ~dst:t.labels.(t.edge_dst.(e))
        (edge_interactions t e)
  done;
  !g

let equal a b =
  let floatarray_equal x y =
    Float.Array.length x = Float.Array.length y
    &&
    let rec go k =
      k >= Float.Array.length x
      || (Float.compare (Float.Array.get x k) (Float.Array.get y k) = 0 && go (k + 1))
    in
    go 0
  in
  a.labels = b.labels && a.inter_src = b.inter_src && a.inter_dst = b.inter_dst
  && floatarray_equal a.inter_time b.inter_time
  && floatarray_equal a.inter_qty b.inter_qty

(* --- raw columns (snapshot interchange) --------------------------- *)

let columns t =
  {
    c_labels = t.labels;
    c_src = t.inter_src;
    c_dst = t.inter_dst;
    c_time = t.inter_time;
    c_qty = t.inter_qty;
  }

let of_columns { c_labels; c_src; c_dst; c_time; c_qty } =
  let n = Array.length c_labels and m = Array.length c_src in
  if Array.length c_dst <> m || Float.Array.length c_time <> m || Float.Array.length c_qty <> m
  then Error "interaction columns have inconsistent lengths"
  else begin
    (* The validation loops are on the snapshot-load hot path: plain
       comparisons only, the message is formatted once on the first
       failure. *)
    let err = ref None in
    let fail fmt = Printf.ksprintf (fun s -> err := Some s) fmt in
    (try
       for v = 1 to n - 1 do
         if c_labels.(v - 1) >= c_labels.(v) then begin
           fail "label column not strictly increasing";
           raise Exit
         end
       done;
       for k = 0 to m - 1 do
         let s = c_src.(k) and d = c_dst.(k) in
         let tm = Float.Array.get c_time k and q = Float.Array.get c_qty k in
         if s < 0 || s >= n then begin
           fail "interaction %d: source id out of range" k;
           raise Exit
         end;
         if d < 0 || d >= n then begin
           fail "interaction %d: destination id out of range" k;
           raise Exit
         end;
         if Float.is_nan tm then begin
           fail "interaction %d: NaN time" k;
           raise Exit
         end;
         if Float.is_nan q then begin
           fail "interaction %d: NaN quantity" k;
           raise Exit
         end;
         if q < 0.0 then begin
           fail "interaction %d: negative quantity" k;
           raise Exit
         end;
         if k > 0 then begin
           let c = Float.compare (Float.Array.get c_time (k - 1)) tm in
           let c = if c <> 0 then c else Float.compare (Float.Array.get c_qty (k - 1)) q in
           let c = if c <> 0 then c else compare c_src.(k - 1) s in
           let c = if c <> 0 then c else compare c_dst.(k - 1) d in
           if c > 0 then begin
             fail "interaction %d: columns not in global scan order" k;
             raise Exit
           end
         end
       done
     with Exit -> ());
    match !err with
    | Some msg -> Error msg
    | None ->
        Ok
          (derive ~labels:c_labels ~label_index:(index_of_labels c_labels) ~inter_src:c_src
             ~inter_dst:c_dst ~inter_time:c_time ~inter_qty:c_qty)
  end
