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

(* The global scan order (time, qty, src, dst) between interaction
   [i] of [a] and interaction [j] of [b].  Every sort and order check
   over columns calls it; it is inlined there and reads the floats in
   place, so none is boxed. *)
let[@inline] scan_compare a i b j =
  let c = Float.compare (Float.Array.get a.c_time i) (Float.Array.get b.c_time j) in
  if c <> 0 then c
  else
    let c = Float.compare (Float.Array.get a.c_qty i) (Float.Array.get b.c_qty j) in
    if c <> 0 then c
    else
      let c = Int.compare a.c_src.(i) b.c_src.(j) in
      if c <> 0 then c else Int.compare a.c_dst.(i) b.c_dst.(j)

(* Builds the derived indexes over interaction columns already in
   global scan order.  All construction paths funnel through here so
   the adjacency layout cannot diverge between CSV, snapshot and
   in-memory origins. *)
let derive ~label_index cols =
  let { c_labels = labels; c_src = inter_src; c_dst = inter_dst; _ } = cols in
  let inter_time = cols.c_time and inter_qty = cols.c_qty in
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

(* Columns over [labels] with room for [m] interactions. *)
let alloc_columns labels m =
  {
    c_labels = labels;
    c_src = Array.make m 0;
    c_dst = Array.make m 0;
    c_time = Float.Array.create m;
    c_qty = Float.Array.create m;
  }

(* Copies interaction [j] of [a] into slot [k] of [b]. *)
let[@inline] blit_inter a j b k =
  b.c_src.(k) <- a.c_src.(j);
  b.c_dst.(k) <- a.c_dst.(j);
  Float.Array.set b.c_time k (Float.Array.get a.c_time j);
  Float.Array.set b.c_qty k (Float.Array.get a.c_qty j)

(* [entries] as columns over [labels], interactions in global scan
   order. *)
let scan_columns labels label_index entries =
  let m = List.length entries in
  let raw = alloc_columns labels m in
  List.iteri
    (fun k (a, b, i) ->
      raw.c_src.(k) <- Hashtbl.find label_index a;
      raw.c_dst.(k) <- Hashtbl.find label_index b;
      Float.Array.set raw.c_time k (Interaction.time i);
      Float.Array.set raw.c_qty k (Interaction.qty i))
    entries;
  let perm = Array.init m Fun.id in
  Array.sort (fun x y -> scan_compare raw x raw y) perm;
  (* Apply the permutation in place, one cycle at a time: a second set
     of columns would add four columns to the peak memory of every CSV
     load.  Slot [k] takes interaction [perm.(k)]; [perm.(k) = -1] marks
     it done. *)
  let tmp = alloc_columns labels 1 in
  for start = 0 to m - 1 do
    if perm.(start) >= 0 then begin
      blit_inter raw start tmp 0;
      let k = ref start in
      while perm.(!k) <> start do
        let next = perm.(!k) in
        blit_inter raw next raw !k;
        perm.(!k) <- -1;
        k := next
      done;
      blit_inter tmp 0 raw !k;
      perm.(!k) <- -1
    end
  done;
  raw

let of_entries ?(vertices = []) entries =
  let module IS = Set.Make (Int) in
  let lset = List.fold_left (fun s v -> IS.add v s) IS.empty vertices in
  let lset = List.fold_left (fun s (a, b, _) -> IS.add a (IS.add b s)) lset entries in
  let labels = Array.of_seq (IS.to_seq lset) in
  let label_index = index_of_labels labels in
  derive ~label_index (scan_columns labels label_index entries)

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
  let old =
    { c_labels = labels; c_src = src; c_dst = dst; c_time = t.inter_time; c_qty = t.inter_qty }
  in
  let batch = scan_columns labels label_index entries in
  let m_old = Array.length src and b = Array.length batch.c_src in
  let cols = alloc_columns labels (m_old + b) in
  let i = ref 0 and k = ref 0 in
  for o = 0 to m_old + b - 1 do
    if !k < b && (!i = m_old || scan_compare old !i batch !k > 0) then begin
      blit_inter batch !k cols o;
      incr k
    end
    else begin
      blit_inter old !i cols o;
      incr i
    end
  done;
  derive ~label_index cols

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

(* Edge [e] as a [Graph] edge over raw labels. *)
let graph_edge t e = (t.labels.(t.edge_src.(e)), t.labels.(t.edge_dst.(e)), edge_interactions t e)

(* Edge ids are ordered by (src, dst) and ids are label ranks, so edges
   taken in id order are in the (src, dst) label order
   [Graph.of_sorted_edges] asks for. *)
let edges_to_graph t eids =
  Graph.of_sorted_edges ~vertices:[]
    (Seq.map (graph_edge t) (List.to_seq (List.sort_uniq Int.compare eids)))

let to_graph t =
  Graph.of_sorted_edges ~vertices:(Array.to_list t.labels) (Seq.init (n_edges t) (graph_edge t))

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

let of_columns ({ c_labels; c_src; c_dst; c_time; c_qty } as cols) =
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
         if k > 0 && scan_compare cols (k - 1) cols k > 0 then begin
           fail "interaction %d: columns not in global scan order" k;
           raise Exit
         end
       done
     with Exit -> ());
    match !err with
    | Some msg -> Error msg
    | None -> Ok (derive ~label_index:(index_of_labels c_labels) cols)
  end
