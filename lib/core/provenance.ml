module Obs = Tin_obs.Obs
module Timer = Tin_util.Timer

let c_spills = Obs.Counter.make "prov_spills_total"
let g_entries = Obs.Gauge.make "prov_entries"
let h_scan_ms = Obs.Histogram.make "prov_scan_ms"

type policy = Lrb | Mrb | Proportional

let policy_name = function Lrb -> "lrb" | Mrb -> "mrb" | Proportional -> "prop"

let policy_of_string s =
  match String.lowercase_ascii s with
  | "lrb" -> Some Lrb
  | "mrb" -> Some Mrb
  | "prop" | "proportional" -> Some Proportional
  | _ -> None

type origin =
  | Inter of {
      index : int;
      src : Graph.vertex;
      dst : Graph.vertex;
      time : float;
      qty : float;
    }
  | Vertex of Graph.vertex
  | Any

let compare_origin a b =
  let rank = function Any -> 0 | Vertex _ -> 1 | Inter _ -> 2 in
  match (a, b) with
  | Any, Any -> 0
  | Vertex u, Vertex v -> Int.compare u v
  | Inter i, Inter j -> Int.compare i.index j.index
  | _ -> Int.compare (rank a) (rank b)

let describe_origin = function
  | Inter i -> Printf.sprintf "interaction #%d %d->%d @%g (qty %g)" i.index i.src i.dst i.time i.qty
  | Vertex v -> Printf.sprintf "vertex %d (aggregated)" v
  | Any -> "(aggregated: mixed origins)"

type t = {
  totals : (Graph.vertex * float) list;
  vectors : (Graph.vertex * (origin * float) list) list;
  spills : int;
  peak_entries : int;
}

let default_budget = 64

(* --- provenance buffers ---------------------------------------------

   A buffer is a list of entries sorted ascending by (born, origin),
   where [born] is the scan index of the interaction that created the
   mass.  The key order is total, so every list operation below —
   and therefore every floating-point addition order — is
   deterministic.  Entries with equal keys are always coalesced on
   merge, so keys are unique within a buffer.  [Lrb] consumes from the
   front, [Mrb] from the back, [Proportional] scales every entry by
   one ratio. *)

type entry = { origin : origin; born : int; mutable mass : float }

type ctx = {
  budget : int;
  mutable live : int;  (* entries currently alive across all buffers *)
  mutable peak : int;
  mutable spills : int;
}

let compare_entry a b =
  match Int.compare a.born b.born with 0 -> compare_origin a.origin b.origin | c -> c

(* Merge two sorted entry lists, coalescing equal keys in place. *)
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

let birth_vertex = function Inter i -> Some i.src | Vertex v -> Some v | Any -> None

(* While over budget, coarsen the two oldest entries into one group
   entry (same birth vertex -> [Vertex], else [Any]) and re-merge it,
   since the coarsened key may collide with an entry further down. *)
let rec enforce_budget ctx l =
  if List.length l <= ctx.budget then l
  else
    match l with
    | a :: b :: rest ->
        let o =
          match (birth_vertex a.origin, birth_vertex b.origin) with
          | Some va, Some vb when va = vb -> Vertex va
          | _ -> Any
        in
        ctx.spills <- ctx.spills + 1;
        ctx.live <- ctx.live - 1;
        let merged = { origin = o; born = a.born; mass = a.mass +. b.mass } in
        enforce_budget ctx (merge ctx [ merged ] rest)
    | _ -> l

(* Consume [take] from the front of a buffer.  Whole entries relocate;
   the boundary entry splits.  If the buffer runs dry first (masses
   can drift a few ulps below the scalar total), the moved batch just
   falls short — the scalar side stays authoritative. *)
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

(* Select the provenance of [take] units leaving a buffer whose scalar
   total is [avail] (> 0).  Returns the moved batch in key order and
   the remaining buffer. *)
let select ctx policy buffer ~take ~avail =
  match policy with
  | Lrb -> consume_front ctx buffer take
  | Mrb ->
      let moved, kept = consume_front ctx (List.rev buffer) take in
      (List.rev moved, List.rev kept)
  | Proportional ->
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

(* Aggregate a buffer by origin for reporting.  Masses are summed in
   buffer (key) order so the addition sequence is deterministic; the
   output is sorted by descending mass, ties broken by origin. *)
let aggregate entries =
  let acc = ref [] in
  (* first-seen order; buffers are budget-bounded so O(n^2) is fine *)
  List.iter
    (fun e ->
      match List.assoc_opt e.origin !acc with
      | Some cell -> cell := !cell +. e.mass
      | None -> acc := !acc @ [ (e.origin, ref e.mass) ])
    entries;
  List.map (fun (o, cell) -> (o, !cell)) !acc
  |> List.sort (fun (o1, m1) (o2, m2) ->
         match Float.compare m2 m1 with 0 -> compare_origin o1 o2 | c -> c)

(* --- the scan --------------------------------------------------------

   Slot-indexed buffers over the canonical interaction order.  In
   source-rooted mode the scalar operations replicate [Greedy]'s exact
   floating-point sequence (strict-time buffers: pending arrivals at
   the current timestamp flush when time advances; the absorbing
   vertex never re-sends; moved = min(q, avail); the source is
   infinite), so per-slot totals are bit-identical to
   [Greedy.buffers].  In open-world mode every interaction ships its
   full quantity and the uncovered part is born at the sender.  The
   scan does not share [Greedy.Kernel]: the provenance entries move
   inside the same per-interaction step. *)

let scan ~policy ~budget ?source ?absorb ~trace g =
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
  let dirty = Array.make size 0 in
  let n_dirty = ref 0 in
  let avail_e : entry list array = Array.make size [] in
  let pend_e : entry list array = Array.make size [] in
  if rooted && source_slot >= 0 then avail.(source_slot) <- infinity;
  let ctx = { budget; live = 0; peak = 0; spills = 0 } in
  let flush () =
    for i = 0 to !n_dirty - 1 do
      let u = dirty.(i) in
      let p = pending.(u) in
      if p > 0.0 then avail.(u) <- avail.(u) +. p;
      pending.(u) <- 0.0;
      (match pend_e.(u) with
      | [] -> ()
      | batch ->
          avail_e.(u) <- enforce_budget ctx (merge ctx avail_e.(u) batch);
          pend_e.(u) <- [])
    done;
    n_dirty := 0
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
    (* [shipped] moves to the receiver; [take] of it comes out of the
       sender's buffer; the rest is born at this interaction. *)
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
      if pending.(u) = 0.0 then begin
        dirty.(!n_dirty) <- u;
        incr n_dirty
      end;
      pending.(u) <- pending.(u) +. shipped;
      let selected, kept =
        if take > 0.0 then select ctx policy avail_e.(v) ~take ~avail:b
        else ([], avail_e.(v))
      in
      avail_e.(v) <- kept;
      let batch =
        if born_amt > 0.0 then begin
          ctx.live <- ctx.live + 1;
          selected
          @ [
              {
                origin = Inter { index = k; src; dst; time = tm; qty = q };
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
  let totals = List.init n_slots (fun s -> (verts.(s), avail.(s))) in
  let vectors = List.init n_slots (fun s -> (verts.(s), aggregate avail_e.(s))) in
  Obs.Counter.add c_spills ctx.spills;
  Obs.Gauge.set g_entries (float_of_int ctx.peak);
  { totals; vectors; spills = ctx.spills; peak_entries = ctx.peak }

let run ?(policy = Proportional) ?(budget = default_budget) ?source ?absorb ?trace g =
  let scan () = scan ~policy ~budget ?source ?absorb ~trace g in
  if Atomic.get Obs.enabled then
    Obs.Span.with_ "provenance.scan" (fun () ->
        let r, ms = Timer.time_ms scan in
        Obs.Histogram.observe h_scan_ms ms;
        r)
  else scan ()
