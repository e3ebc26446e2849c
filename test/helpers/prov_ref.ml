(* Reference provenance engine over entry lists, sharing no buffer code
   with [Tin_core.Provenance]: the executable statement of what its
   flat columns must compute, bit for bit.

   A buffer is a list of entries sorted ascending by (born, origin),
   where [born] is the scan index of the interaction that created the
   mass.  Equal keys coalesce on merge (held mass + incoming mass).
   Over budget, the two oldest entries merge into one coarser group
   (same birth vertex -> [Vertex], else [Any]) and the result is merged
   back, one spill at a time.  [Lrb] consumes from the front, [Mrb]
   from the back, [Proportional] splits every entry by one ratio. *)

module Prov = Tin_core.Provenance

type entry = { origin : Prov.origin; born : int; mutable mass : float }

type ctx = { budget : int; mutable live : int; mutable peak : int; mutable spills : int }

let compare_entry a b =
  match Int.compare a.born b.born with 0 -> Prov.compare_origin a.origin b.origin | c -> c

let rec merge ctx xs ys =
  match (xs, ys) with
  | [], l | l, [] -> l
  | x :: xs', y :: ys' ->
      let c = compare_entry x y in
      if c = 0 then begin
        x.mass <- x.mass +. y.mass;
        ctx.live <- ctx.live - 1;
        x :: merge ctx xs' ys'
      end
      else if c < 0 then x :: merge ctx xs' ys
      else y :: merge ctx xs ys'

let birth_vertex = function
  | Prov.Inter i -> Some i.src
  | Prov.Vertex v -> Some v
  | Prov.Any -> None

let rec enforce_budget ctx l =
  if List.length l <= ctx.budget then l
  else
    match l with
    | a :: b :: rest ->
        let o =
          match (birth_vertex a.origin, birth_vertex b.origin) with
          | Some va, Some vb when va = vb -> Prov.Vertex va
          | _ -> Prov.Any
        in
        ctx.spills <- ctx.spills + 1;
        ctx.live <- ctx.live - 1;
        let merged = { origin = o; born = a.born; mass = a.mass +. b.mass } in
        enforce_budget ctx (merge ctx [ merged ] rest)
    | _ -> l

let consume_front ctx buffer take =
  let rec go remaining = function
    | [] -> ([], [])
    | e :: rest ->
        if remaining <= 0.0 then ([], e :: rest)
        else if e.mass <= remaining then begin
          let moved, kept = go (remaining -. e.mass) rest in
          (e :: moved, kept)
        end
        else begin
          let part = { origin = e.origin; born = e.born; mass = remaining } in
          ctx.live <- ctx.live + 1;
          e.mass <- e.mass -. remaining;
          ([ part ], e :: rest)
        end
  in
  go take buffer

let select ctx policy buffer ~take ~avail =
  match policy with
  | Prov.Lrb -> consume_front ctx buffer take
  | Prov.Mrb ->
      let moved, kept = consume_front ctx (List.rev buffer) take in
      (List.rev moved, List.rev kept)
  | Prov.Proportional ->
      let ratio = take /. avail in
      let moved = ref [] and kept = ref [] in
      List.iter
        (fun e ->
          let part = e.mass *. ratio in
          if part > 0.0 then begin
            moved := { origin = e.origin; born = e.born; mass = part } :: !moved;
            ctx.live <- ctx.live + 1
          end;
          let rest = e.mass -. part in
          if rest > 0.0 then begin
            e.mass <- rest;
            kept := e :: !kept
          end
          else ctx.live <- ctx.live - 1)
        buffer;
      (List.rev !moved, List.rev !kept)

(* Group by origin in first-seen order, summing in buffer order; sort
   by descending mass, ties by origin. *)
let aggregate entries =
  let acc = ref [] in
  List.iter
    (fun e ->
      match List.assoc_opt e.origin !acc with
      | Some cell -> cell := !cell +. e.mass
      | None -> acc := !acc @ [ (e.origin, ref e.mass) ])
    entries;
  List.map (fun (o, cell) -> (o, !cell)) !acc
  |> List.sort (fun (o1, m1) (o2, m2) ->
         match Float.compare m2 m1 with 0 -> Prov.compare_origin o1 o2 | c -> c)

(* Same arguments and result as [Provenance.run]. *)
let run ?(policy = Prov.Proportional) ?(budget = Prov.default_budget) ?source ?absorb ?trace g =
  if budget < 2 then invalid_arg "Provenance: budget must be at least 2";
  let rooted = source <> None in
  let verts = Array.of_list (Graph.vertices g) in
  let n_slots = Array.length verts in
  let slot_of = Hashtbl.create (max 16 n_slots) in
  Array.iteri (fun s v -> Hashtbl.replace slot_of v s) verts;
  let slot = function
    | None -> -1
    | Some l -> ( match Hashtbl.find_opt slot_of l with Some s -> s | None -> -1)
  in
  let source_slot = slot source and absorb_slot = slot absorb in
  if rooted && source_slot = absorb_slot && source_slot >= 0 then
    invalid_arg "Provenance: source = absorb";
  let size = max 1 n_slots in
  let avail = Array.make size 0.0 in
  let pending = Array.make size 0.0 in
  let dirty = ref [] in
  let avail_e : entry list array = Array.make size [] in
  let pend_e : entry list array = Array.make size [] in
  if rooted && source_slot >= 0 then avail.(source_slot) <- infinity;
  let ctx = { budget; live = 0; peak = 0; spills = 0 } in
  let flush () =
    List.iter
      (fun u ->
        let p = pending.(u) in
        if p > 0.0 then avail.(u) <- avail.(u) +. p;
        pending.(u) <- 0.0;
        match pend_e.(u) with
        | [] -> ()
        | batch ->
            avail_e.(u) <- enforce_budget ctx (merge ctx avail_e.(u) batch);
            pend_e.(u) <- [])
      (List.rev !dirty);
    dirty := []
  in
  let current = ref nan in
  let inters = Graph.interactions_sorted g in
  for k = 0 to Array.length inters - 1 do
    let src, dst, i = inters.(k) in
    let v = Hashtbl.find slot_of src and u = Hashtbl.find slot_of dst in
    let tm = Interaction.time i and q = Interaction.qty i in
    if not (Float.equal !current tm) then begin
      flush ();
      current := tm
    end;
    let b = if v = absorb_slot then 0.0 else avail.(v) in
    let shipped, take, born_amt =
      if rooted then
        let moved = Float.min q b in
        if v = source_slot then (moved, 0.0, moved) else (moved, moved, 0.0)
      else
        let take = Float.min q b in
        (q, take, q -. take)
    in
    if shipped > 0.0 then begin
      if take > 0.0 then avail.(v) <- b -. take;
      if pending.(u) = 0.0 then dirty := u :: !dirty;
      pending.(u) <- pending.(u) +. shipped;
      let selected, kept =
        if take > 0.0 then select ctx policy avail_e.(v) ~take ~avail:b else ([], avail_e.(v))
      in
      avail_e.(v) <- kept;
      let batch =
        if born_amt > 0.0 then begin
          ctx.live <- ctx.live + 1;
          selected
          @ [
              {
                origin = Prov.Inter { index = k; src; dst; time = tm; qty = q };
                born = k;
                mass = born_amt;
              };
            ]
        end
        else selected
      in
      (match trace with
      | Some f -> f k (List.map (fun e -> (e.origin, e.mass)) batch)
      | None -> ());
      (match batch with
      | [] -> ()
      | _ -> pend_e.(u) <- enforce_budget ctx (merge ctx pend_e.(u) batch));
      if ctx.live > ctx.peak then ctx.peak <- ctx.live
    end
  done;
  flush ();
  {
    Prov.totals = List.init n_slots (fun s -> (verts.(s), avail.(s)));
    vectors = List.init n_slots (fun s -> (verts.(s), aggregate avail_e.(s)));
    spills = ctx.spills;
    peak_entries = ctx.peak;
  }
