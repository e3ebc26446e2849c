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

   Each slot has two buffers: [avail], the mass it can send now, and
   [pending], what reached it at the current timestamp.  A buffer is a
   pair of flat columns — an int key array and a floatarray of masses
   — sorted ascending by key, keys unique, allocated when the slot
   first holds mass and grown by doubling up to the budget.

   An entry's key is [born * 3 + kind]: [born] is the scan index of
   the interaction that created the mass, and [kind] is 0 for [Any], 1
   for [Vertex] and 2 for [Inter].  The key determines the origin.  An
   [Inter] origin is its [born] interaction, and a [Vertex] group's
   vertex is always the sender of its [born] interaction: a spill makes
   one only from entries born at that vertex, and keeps the older
   one's [born].  So keys order entries as [(born, compare_origin)]
   does, equal keys are equal origins, and origins are decoded only
   for output and for [?trace].

   Every operation is one linear pass in key order, so every
   floating-point addition order is fixed: a coalescing merge adds the
   held mass and the incoming mass, and a spill adds oldest first.
   [Lrb] moves a prefix, [Mrb] a suffix, and [Proportional] scales
   every entry by one ratio in place. *)

let kind_any = 0
let kind_vertex = 1
let kind_inter = 2

type columns = {
  keys : int array array;
  masses : Float.Array.t array;
  len : int array;
}

let columns n =
  { keys = Array.make n [||]; masses = Array.make n (Float.Array.create 0); len = Array.make n 0 }

type state = {
  budget : int;
  inters : (Graph.vertex * Graph.vertex * Interaction.t) array;
  avail_b : columns;
  pend_b : columns;
  (* The batch the current interaction moves, in key order. *)
  batch_k : int array;
  batch_m : Float.Array.t;
  mutable batch_n : int;
  (* A merge's output, before the budget is enforced. *)
  merged_k : int array;
  merged_m : Float.Array.t;
  mutable live : int;  (* entries currently alive across all buffers *)
  mutable peak : int;
  mutable spills : int;
}

let sender st born =
  let src, _, _ = st.inters.(born) in
  src

let decode st key =
  let born = key / 3 in
  match key mod 3 with
  | 0 -> Any
  | 1 -> Vertex (sender st born)
  | _ ->
      let src, dst, (i : Interaction.t) = st.inters.(born) in
      Inter { index = born; src; dst; time = i.time; qty = i.qty }

(* Room for [n <= budget] entries in slot [s]'s buffer, whose contents
   are about to be overwritten. *)
let reserve st c s n =
  let cap = Array.length c.keys.(s) in
  if cap < n then begin
    let cap = ref (max 4 (2 * cap)) in
    while !cap < n do
      cap := 2 * !cap
    done;
    let cap = min st.budget !cap in
    c.keys.(s) <- Array.make cap 0;
    c.masses.(s) <- Float.Array.create cap
  end

(* Write the [n] merged entries into slot [s]'s buffer.  Over budget,
   the rule is to merge the two oldest entries into one group (same
   birth vertex -> [Vertex], else [Any], keeping the older [born])
   until [n - budget] spills are done.  The coarsened entry's key is at
   most the oldest one's, so it sorts before every remaining entry and
   never coalesces with one: the spills are one left fold of the
   [n - budget + 1] oldest entries.  Their birth vertex is the sender
   of their [born] interaction, except for [Any], which has none. *)
let settle st c s n =
  let mk = st.merged_k and mm = st.merged_m in
  if n <= st.budget then begin
    reserve st c s n;
    Array.blit mk 0 c.keys.(s) 0 n;
    Float.Array.blit mm 0 c.masses.(s) 0 n;
    c.len.(s) <- n
  end
  else begin
    let spills = n - st.budget in
    let born = mk.(0) / 3 in
    let vertex = sender st born in
    let same = ref (mk.(0) mod 3 <> kind_any) in
    let mass = ref (Float.Array.get mm 0) in
    for j = 1 to spills do
      let key = mk.(j) in
      if !same && (key mod 3 = kind_any || sender st (key / 3) <> vertex) then same := false;
      mass := !mass +. Float.Array.get mm j
    done;
    reserve st c s st.budget;
    let keys = c.keys.(s) and masses = c.masses.(s) in
    keys.(0) <- (3 * born) + if !same then kind_vertex else kind_any;
    Float.Array.set masses 0 !mass;
    Array.blit mk (spills + 1) keys 1 (st.budget - 1);
    Float.Array.blit mm (spills + 1) masses 1 (st.budget - 1);
    c.len.(s) <- st.budget;
    st.spills <- st.spills + spills;
    st.live <- st.live - spills
  end

(* Merge the [n] sorted entries of [ik]/[im] into slot [s]'s buffer:
   a two-pointer pass into the scratch, equal keys coalescing, then
   {!settle}. *)
let merge_into st c s ik im n =
  let hk = c.keys.(s) and hm = c.masses.(s) and h = c.len.(s) in
  let mk = st.merged_k and mm = st.merged_m in
  let i = ref 0 and j = ref 0 and o = ref 0 in
  while !i < h && !j < n do
    let a = hk.(!i) and b = ik.(!j) in
    if a = b then begin
      mk.(!o) <- a;
      Float.Array.set mm !o (Float.Array.get hm !i +. Float.Array.get im !j);
      incr i;
      incr j;
      st.live <- st.live - 1
    end
    else if a < b then begin
      mk.(!o) <- a;
      Float.Array.set mm !o (Float.Array.get hm !i);
      incr i
    end
    else begin
      mk.(!o) <- b;
      Float.Array.set mm !o (Float.Array.get im !j);
      incr j
    end;
    incr o
  done;
  Array.blit hk !i mk !o (h - !i);
  Float.Array.blit hm !i mm !o (h - !i);
  let o = !o + h - !i in
  Array.blit ik !j mk o (n - !j);
  Float.Array.blit im !j mm o (n - !j);
  settle st c s (o + n - !j)

(* The selections below take a float, so they are inlined into the
   scan's step: a call would box it. *)
let[@inline] push st key mass =
  st.batch_k.(st.batch_n) <- key;
  Float.Array.set st.batch_m st.batch_n mass;
  st.batch_n <- st.batch_n + 1

(* [Lrb]: [take] units from the front of slot [v]'s buffer.  Whole
   entries move; the boundary entry splits.  If the buffer runs dry
   first (masses can drift a few ulps below the scalar total), the
   batch just falls short — the scalar side stays authoritative. *)
let[@inline] select_lrb st v take =
  let c = st.avail_b in
  let keys = c.keys.(v) and masses = c.masses.(v) and n = c.len.(v) in
  let remaining = ref take and i = ref 0 and split = ref false in
  while !i < n && (not !split) && not (!remaining <= 0.0) do
    let m = Float.Array.get masses !i in
    if m <= !remaining then begin
      push st keys.(!i) m;
      remaining := !remaining -. m;
      incr i
    end
    else begin
      push st keys.(!i) !remaining;
      Float.Array.set masses !i (m -. !remaining);
      st.live <- st.live + 1;
      split := true
    end
  done;
  let i = !i in
  if i > 0 then begin
    Array.blit keys i keys 0 (n - i);
    Float.Array.blit masses i masses 0 (n - i);
    c.len.(v) <- n - i
  end

(* [Mrb]: the same from the back; the kept prefix stays in place. *)
let[@inline] select_mrb st v take =
  let c = st.avail_b in
  let keys = c.keys.(v) and masses = c.masses.(v) and n = c.len.(v) in
  let remaining = ref take and j = ref n and split = ref false in
  while !j > 0 && (not !split) && not (!remaining <= 0.0) do
    let m = Float.Array.get masses (!j - 1) in
    if m <= !remaining then begin
      remaining := !remaining -. m;
      decr j
    end
    else begin
      Float.Array.set masses (!j - 1) (m -. !remaining);
      st.live <- st.live + 1;
      split := true
    end
  done;
  let j = !j in
  if !split then push st keys.(j - 1) !remaining;
  for x = j to n - 1 do
    push st keys.(x) (Float.Array.get masses x)
  done;
  c.len.(v) <- j

(* [Proportional]: every entry gives [ratio] of its mass; entries left
   empty drop out. *)
let[@inline] select_prop st v ratio =
  let c = st.avail_b in
  let keys = c.keys.(v) and masses = c.masses.(v) and n = c.len.(v) in
  let kept = ref 0 in
  for x = 0 to n - 1 do
    let m = Float.Array.get masses x in
    let part = m *. ratio in
    if part > 0.0 then begin
      push st keys.(x) part;
      st.live <- st.live + 1
    end;
    let rest = m -. part in
    if rest > 0.0 then begin
      keys.(!kept) <- keys.(x);
      Float.Array.set masses !kept rest;
      incr kept
    end
    else st.live <- st.live - 1
  done;
  c.len.(v) <- !kept

(* Slot [s]'s reported vector: its entries grouped by origin — every
   [Any] entry in one group, [Vertex] entries by vertex, each group
   summed in key order — sorted by descending mass, ties by origin. *)
let vector st s =
  let c = st.avail_b in
  let keys = c.keys.(s) and masses = c.masses.(s) in
  let coarse = ref [] and fine = ref [] in
  for j = 0 to c.len.(s) - 1 do
    let o = decode st keys.(j) and m = Float.Array.get masses j in
    match o with
    | Inter _ -> fine := (o, m) :: !fine
    | Any | Vertex _ ->
        let rec add = function
          | [] -> [ (o, m) ]
          | (o', sum) :: rest when o' = o -> (o', sum +. m) :: rest
          | g :: rest -> g :: add rest
        in
        coarse := add !coarse
  done;
  List.sort
    (fun (o1, m1) (o2, m2) -> match Float.compare m2 m1 with 0 -> compare_origin o1 o2 | c -> c)
    (List.rev_append !coarse !fine)

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
   inside the same per-interaction step, which allocates nothing. *)

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
  if rooted && source_slot >= 0 then avail.(source_slot) <- infinity;
  let inters = Graph.interactions_sorted g in
  (* A buffer never holds more than [budget] entries, nor more than the
     3 keys per interaction. *)
  let bound = min budget (3 * Array.length inters) in
  let st =
    {
      budget;
      inters;
      avail_b = columns size;
      pend_b = columns size;
      batch_k = Array.make (bound + 1) 0;
      batch_m = Float.Array.create (bound + 1);
      batch_n = 0;
      merged_k = Array.make ((2 * bound) + 1) 0;
      merged_m = Float.Array.create ((2 * bound) + 1);
      live = 0;
      peak = 0;
      spills = 0;
    }
  in
  let flush () =
    for i = 0 to !n_dirty - 1 do
      let u = dirty.(i) in
      let p = pending.(u) in
      if p > 0.0 then avail.(u) <- avail.(u) +. p;
      pending.(u) <- 0.0;
      let n = st.pend_b.len.(u) in
      if n > 0 then begin
        merge_into st st.avail_b u st.pend_b.keys.(u) st.pend_b.masses.(u) n;
        st.pend_b.len.(u) <- 0
      end
    done;
    n_dirty := 0
  in
  let current = ref nan in
  for k = 0 to Array.length inters - 1 do
    let src, dst, (i : Interaction.t) = inters.(k) in
    let v = Hashtbl.find slot_of src and u = Hashtbl.find slot_of dst in
    let tm = i.time and q = i.qty in
    if not (Float.equal !current tm) then begin
      flush ();
      current := tm
    end;
    let b = if v = absorb_slot then 0.0 else avail.(v) in
    (* [shipped] moves to the receiver; [take] of it comes out of the
       sender's buffer; the rest is born at this interaction. *)
    let m = Float.min q b in
    let shipped = if rooted then m else q in
    let take = if rooted && v = source_slot then 0.0 else m in
    let born_amt = if not rooted then q -. m else if v = source_slot then m else 0.0 in
    if shipped > 0.0 then begin
      if take > 0.0 then avail.(v) <- b -. take;
      if pending.(u) = 0.0 then begin
        dirty.(!n_dirty) <- u;
        incr n_dirty
      end;
      pending.(u) <- pending.(u) +. shipped;
      st.batch_n <- 0;
      if take > 0.0 then begin
        match policy with
        | Lrb -> select_lrb st v take
        | Mrb -> select_mrb st v take
        | Proportional -> select_prop st v (take /. b)
      end;
      if born_amt > 0.0 then begin
        push st ((3 * k) + kind_inter) born_amt;
        st.live <- st.live + 1
      end;
      (match trace with
      | Some f ->
          f k
            (List.init st.batch_n (fun j ->
                 (decode st st.batch_k.(j), Float.Array.get st.batch_m j)))
      | None -> ());
      if st.batch_n > 0 then merge_into st st.pend_b u st.batch_k st.batch_m st.batch_n;
      if st.live > st.peak then st.peak <- st.live
    end
  done;
  flush ();
  let totals = List.init n_slots (fun s -> (verts.(s), avail.(s))) in
  let vectors = List.init n_slots (fun s -> (verts.(s), vector st s)) in
  Obs.Counter.add c_spills st.spills;
  Obs.Gauge.set g_entries (float_of_int st.peak);
  { totals; vectors; spills = st.spills; peak_entries = st.peak }

let run ?(policy = Proportional) ?(budget = default_budget) ?source ?absorb ?trace g =
  let scan () = scan ~policy ~budget ?source ?absorb ~trace g in
  if Atomic.get Obs.enabled then
    Obs.Span.with_ "provenance.scan" (fun () ->
        let r, ms = Timer.time_ms scan in
        Obs.Histogram.observe h_scan_ms ms;
        r)
  else scan ()
