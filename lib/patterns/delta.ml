module Obs = Tin_obs.Obs

(* The streaming daemon applies deltas on a cadence; these make the
   incremental-versus-rebuild economics visible in a scrape. *)
let c_applies = Obs.Counter.make "delta.applies"
let c_rows = Obs.Counter.make "delta.rows_recomputed"

type t = { net : Compact.t; tables : Catalog.tables; rows_recomputed : int }

let create ?with_chains net =
  { net; tables = Catalog.precompute ?with_chains net; rows_recomputed = 0 }

module PairSet = Set.Make (struct
  type t = int * int

  let compare = compare
end)

(* Rebuild the grown network and translate a vertex of the old id
   space into the new one (label spaces are shared; ids are label
   ranks, so a new vertex shifts every larger label's id). *)
let grow old_net additions =
  let entries = ref additions in
  for e = Compact.n_edges old_net - 1 downto 0 do
    let s = Compact.label old_net (Compact.edge_src old_net e)
    and d = Compact.label old_net (Compact.edge_dst old_net e) in
    List.iter (fun i -> entries := (s, d, i) :: !entries) (Compact.edge_interactions old_net e)
  done;
  let net = Compact.of_entries !entries in
  let translate v_old =
    match Compact.vertex_of_label net (Compact.label old_net v_old) with
    | Some v -> v
    | None -> assert false (* old edges are all preserved *)
  in
  (net, translate)

let edge_exists net u v = Compact.find_edge net ~src:u ~dst:v <> None

(* New-space flow of one row.  The vertex list alone is ambiguous (a
   chain (a,b,c) may coexist with the cycle (a,b,c)), so the table
   kind decides the edge list. *)
let row_flow ~kind net verts =
  let e a b = Option.get (Compact.find_edge net ~src:a ~dst:b) in
  let eids =
    match (kind, verts) with
    | `Cycle2, [| a; b |] -> [| e a b; e b a |]
    | `Cycle3, [| a; b; c |] -> [| e a b; e b c; e c a |]
    | `Chain2, [| a; b; c |] -> [| e a b; e b c |]
    | _ -> assert false
  in
  Tables.chain_flow net eids

(* Update one table.  [touched] is the set of directed new-space
   pairs with modified interaction sequences; [uses_touched] decides
   row staleness; [discover] enumerates candidate new rows per touched
   pair, every one of which uses that pair.  Ids are label ranks, so
   [translate] is increasing and the kept rows stay sorted in the new
   id space: only the rebuilt rows are sorted, then merged in. *)
let update_table ~kind ~net ~translate ~touched ~uses_touched ~discover table =
  let width = Tables.width table and n_old = Tables.n_rows table in
  let lex a b =
    let rec go i =
      if i = width then 0
      else
        let c = Int.compare a.(i) b.(i) in
        if c <> 0 then c else go (i + 1)
    in
    go 0
  in
  let old =
    Array.init n_old (fun r -> Array.init width (fun i -> translate (Tables.vert table r i)))
  in
  let stale = Array.map uses_touched old in
  (* Candidates: stale old rows plus brand-new rows through touched
     pairs, each rebuilt once. *)
  let candidates = ref [] in
  Array.iteri (fun r verts -> if stale.(r) then candidates := verts :: !candidates) old;
  PairSet.iter (fun (u, v) -> candidates := List.rev_append (discover u v) !candidates) touched;
  let fresh = Array.of_list (List.sort_uniq lex !candidates) in
  let fresh_flows = Array.map (row_flow ~kind net) fresh in
  let count = Array.length fresh in
  let rows = Array.fold_left (fun n s -> if s then n else n + 1) count stale in
  let verts = Array.make (rows * width) 0 and flows = Float.Array.create rows in
  let emit out row flow =
    Array.blit row 0 verts (out * width) width;
    Float.Array.set flows out flow
  in
  let r = ref 0 and f = ref 0 in
  for out = 0 to rows - 1 do
    while !r < n_old && stale.(!r) do
      incr r
    done;
    if !r < n_old && (!f = count || lex old.(!r) fresh.(!f) < 0) then begin
      emit out old.(!r) (Tables.flow table !r);
      incr r
    end
    else begin
      emit out fresh.(!f) fresh_flows.(!f);
      incr f
    end
  done;
  (Tables.of_sorted ~n_vertices:(Compact.n_vertices net) ~width verts flows, count)

let apply t ~additions =
  List.iter
    (fun (s, d, _) -> if s = d then invalid_arg "Delta.apply: self-loop addition")
    additions;
  let net, translate = grow t.net additions in
  let touched =
    List.fold_left
      (fun acc (s, d, _) ->
        match (Compact.vertex_of_label net s, Compact.vertex_of_label net d) with
        | Some u, Some v -> PairSet.add (u, v) acc
        | _ -> acc)
      PairSet.empty additions
  in
  let tch u v = PairSet.mem (u, v) touched in
  (* cycles2: row (a,b) uses edges (a,b) and (b,a). *)
  let uses2 verts = tch verts.(0) verts.(1) || tch verts.(1) verts.(0) in
  let discover2 u v =
    if edge_exists net u v && edge_exists net v u then [ [| u; v |]; [| v; u |] ] else []
  in
  let l2, c2count =
    update_table ~kind:`Cycle2 ~net ~translate ~touched ~uses_touched:uses2
      ~discover:discover2 t.tables.Catalog.l2
  in
  (* cycles3: row (a,b,c) uses (a,b), (b,c), (c,a). *)
  let uses3 verts =
    tch verts.(0) verts.(1) || tch verts.(1) verts.(2) || tch verts.(2) verts.(0)
  in
  let discover3 u v =
    (* All 3-cycles containing directed edge (u,v), each in all three
       anchored rotations. *)
    if not (edge_exists net u v) then []
    else begin
      let out = ref [] in
      Compact.iter_succs net v (fun w _ ->
          if w <> u && w <> v && edge_exists net w u then
            out := [| u; v; w |] :: [| v; w; u |] :: [| w; u; v |] :: !out);
      !out
    end
  in
  let l3, c3count =
    update_table ~kind:`Cycle3 ~net ~translate ~touched ~uses_touched:uses3
      ~discover:discover3 t.tables.Catalog.l3
  in
  (* chains2: row (a,b,c) uses (a,b) and (b,c). *)
  let uses_chain verts = tch verts.(0) verts.(1) || tch verts.(1) verts.(2) in
  let discover_chain u v =
    if not (edge_exists net u v) then []
    else begin
      let out = ref [] in
      Compact.iter_succs net v (fun w _ -> if w <> u && w <> v then out := [| u; v; w |] :: !out);
      Compact.iter_preds net u (fun w _ -> if w <> u && w <> v then out := [| w; u; v |] :: !out);
      !out
    end
  in
  let c2, chain_count =
    match t.tables.Catalog.c2 with
    | None -> (None, 0)
    | Some table ->
        let table, count =
          update_table ~kind:`Chain2 ~net ~translate ~touched ~uses_touched:uses_chain
            ~discover:discover_chain table
        in
        (Some table, count)
  in
  Obs.Counter.incr c_applies;
  Obs.Counter.add c_rows (c2count + c3count + chain_count);
  {
    net;
    tables = { Catalog.l2; l3; c2 };
    rows_recomputed = t.rows_recomputed + c2count + c3count + chain_count;
  }
