module Simplify = Tin_core.Simplify

type row = { verts : Compact.vertex array; arrivals : Interaction.t list; flow : float }

type t = { rows : row array; offsets : int array (* per vertex, length n+1 *) }

let rows t = t.rows
let n_rows t = Array.length t.rows

let for_start t v = Array.sub t.rows t.offsets.(v) (t.offsets.(v + 1) - t.offsets.(v))

let iter_start t v f =
  for k = t.offsets.(v) to t.offsets.(v + 1) - 1 do
    f t.rows.(k)
  done

let starts t =
  let acc = ref [] in
  for v = Array.length t.offsets - 2 downto 0 do
    if t.offsets.(v + 1) > t.offsets.(v) then acc := v :: !acc
  done;
  !acc

let find t key =
  (* Rows are lexicographically sorted (per-anchor construction scans
     successors in ascending order; [of_rows] sorts), so a binary
     search inside the start vertex's offset range suffices. *)
  let v0 = key.(0) in
  if v0 < 0 || v0 + 1 >= Array.length t.offsets then None
  else begin
    let rec search lo hi =
      if lo >= hi then None
      else begin
        let mid = (lo + hi) / 2 in
        let c = compare t.rows.(mid).verts key in
        if c = 0 then Some t.rows.(mid)
        else if c < 0 then search (mid + 1) hi
        else search lo mid
      end
    in
    search t.offsets.(v0) t.offsets.(v0 + 1)
  end

let of_rows ~n_vertices rows =
  let rows = Array.of_list rows in
  Array.sort (fun a b -> compare a.verts b.verts) rows;
  let offsets = Array.make (n_vertices + 1) 0 in
  Array.iter (fun r -> offsets.(r.verts.(0) + 1) <- offsets.(r.verts.(0) + 1) + 1) rows;
  for v = 0 to n_vertices - 1 do
    offsets.(v + 1) <- offsets.(v + 1) + offsets.(v)
  done;
  { rows; offsets }

let build n_vertices collected =
  (* [collected] arrives in ascending start order already (we scan
     vertices in order); offsets are a counting pass. *)
  let rows = Array.of_list (List.rev collected) in
  let offsets = Array.make (n_vertices + 1) 0 in
  Array.iter (fun r -> offsets.(r.verts.(0) + 1) <- offsets.(r.verts.(0) + 1) + 1) rows;
  for v = 0 to n_vertices - 1 do
    offsets.(v + 1) <- offsets.(v + 1) + offsets.(v)
  done;
  { rows; offsets }

let chain_arrivals net eids =
  (* Gather the chain's interactions straight out of the Compact
     columns and run the flat Lemma-3 reduction; the chain is
     positional, so vertex identity (including a = final vertex for
     cycles) is irrelevant here. *)
  let k = List.length eids in
  let total = List.fold_left (fun acc e -> acc + Compact.edge_n_inter net e) 0 eids in
  let times = Float.Array.create total and qtys = Float.Array.create total in
  let pos = Array.make total 0 in
  let off = ref 0 in
  List.iteri
    (fun p e ->
      for j = 0 to Compact.edge_n_inter net e - 1 do
        let i = Compact.edge_inter net e j in
        Float.Array.set times !off (Compact.inter_time net i);
        Float.Array.set qtys !off (Compact.inter_qty net i);
        pos.(!off) <- p;
        incr off
      done)
    eids;
  Simplify.reduce_chain_cols ~k ~times ~qtys ~pos

let path_row net verts eids =
  let arrivals = chain_arrivals net eids in
  { verts; arrivals; flow = Interaction.total_qty arrivals }

(* Domain-parallel precompute: anchors are sharded with
   [Batch.map_reduce]; every chunk collects its rows newest-first (as
   the sequential loop did) and chunk lists are stitched back in
   anchor order, so the reversed list handed to the counting-sort
   [build] is identical to the sequential one for any job count. *)
let per_anchor ?(jobs = 1) net collect =
  let n = Compact.n_vertices net in
  let collected =
    Tin_core.Batch.map_reduce ~jobs ~chunk:32 ~n
      ~init:(fun () -> ref [])
      ~body:(fun acc a -> collect a (fun row -> acc := row :: !acc))
      ~merge:(fun earlier later ->
        ref (List.rev_append (List.rev !later) !earlier))
      ()
  in
  build n !collected

let cycles2 ?jobs net =
  per_anchor ?jobs net (fun a emit ->
      Compact.iter_succs net a (fun b e_ab ->
          match Compact.find_edge net ~src:b ~dst:a with
          | Some e_ba -> emit (path_row net [| a; b |] [ e_ab; e_ba ])
          | None -> ()))

let cycles3 ?jobs net =
  per_anchor ?jobs net (fun a emit ->
      Compact.iter_succs net a (fun b e_ab ->
          if b <> a then
            Compact.iter_succs net b (fun c e_bc ->
                if c <> a && c <> b then
                  match Compact.find_edge net ~src:c ~dst:a with
                  | Some e_ca -> emit (path_row net [| a; b; c |] [ e_ab; e_bc; e_ca ])
                  | None -> ())))

let chains2 ?jobs net =
  per_anchor ?jobs net (fun a emit ->
      Compact.iter_succs net a (fun b e_ab ->
          Compact.iter_succs net b (fun c e_bc ->
              if c <> a && c <> b then emit (path_row net [| a; b; c |] [ e_ab; e_bc ]))))

let memory_rows t =
  Array.fold_left (fun acc r -> acc + List.length r.arrivals) 0 t.rows
