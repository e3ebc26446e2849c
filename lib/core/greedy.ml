module Obs = Tin_obs.Obs

let c_touches = Obs.Counter.make "greedy.buffer_touches"

type transfer = {
  src : Graph.vertex;
  dst : Graph.vertex;
  time : float;
  offered : float;
  moved : float;
}

module Kernel = struct
  (* An all-float record stores its field unboxed, so advancing the
     clock never allocates. *)
  type clock = { mutable now : float }

  (* Buffer state over integer slots: [avail] is the quantity usable
     now (arrived strictly earlier), [pending] holds arrivals at
     [clock.now], flushed into [avail] when the scan moves to a later
     timestamp; [dirty.(0 .. n_dirty - 1)] are the slots with pending
     quantity.  Labels are interned on first sight — the source at
     slot 0, the sink at slot 1 — and the arrays double when a new
     label overflows them. *)
  type t = {
    slots : (Graph.vertex, int) Hashtbl.t;
    mutable avail : float array;
    mutable pending : float array;
    mutable dirty : int array;
    mutable n_dirty : int;
    clock : clock;
    mutable touches : int;
  }

  let source_slot = 0
  let sink_slot = 1

  let create ~source ~sink =
    if source = sink then invalid_arg "Greedy.Kernel.create: source = sink";
    let cap = 16 in
    let t =
      {
        slots = Hashtbl.create cap;
        avail = Array.make cap 0.0;
        pending = Array.make cap 0.0;
        dirty = Array.make cap 0;
        n_dirty = 0;
        clock = { now = nan };
        touches = 0;
      }
    in
    Hashtbl.replace t.slots source source_slot;
    Hashtbl.replace t.slots sink sink_slot;
    t.avail.(source_slot) <- infinity;
    t

  let grow t =
    let cap = 2 * Array.length t.avail in
    let extend a fill =
      let b = Array.make cap fill in
      Array.blit a 0 b 0 (Array.length a);
      b
    in
    t.avail <- extend t.avail 0.0;
    t.pending <- extend t.pending 0.0;
    t.dirty <- extend t.dirty 0

  let slot t v =
    match Hashtbl.find t.slots v with
    | s -> s
    | exception Not_found ->
        let s = Hashtbl.length t.slots in
        if s = Array.length t.avail then grow t;
        Hashtbl.add t.slots v s;
        s

  let flush t =
    for k = 0 to t.n_dirty - 1 do
      let u = t.dirty.(k) in
      let p = t.pending.(u) in
      if p > 0.0 then t.avail.(u) <- t.avail.(u) +. p;
      t.pending.(u) <- 0.0
    done;
    t.n_dirty <- 0

  (* Definition 4 for one interaction [v -> u] at [(tm, q)]; returns
     the quantity moved.  Inlined into [replay] and [push] so that no
     float crosses a call boundary (a boxed argument or result per
     interaction otherwise). *)
  let[@inline always] step t v u tm q =
    if not (Float.equal t.clock.now tm) then begin
      flush t;
      t.clock.now <- tm
    end;
    (* The sink absorbs: quantity that reached it is never re-sent
       (the paper's graphs give the sink no outgoing edges; on
       arbitrary graphs this defines the flow as total absorbed). *)
    let b = if v = sink_slot then 0.0 else t.avail.(v) in
    let moved = Float.min q b in
    if moved > 0.0 then begin
      if v <> source_slot then t.avail.(v) <- b -. moved;
      if t.pending.(u) = 0.0 then begin
        t.dirty.(t.n_dirty) <- u;
        t.n_dirty <- t.n_dirty + 1
      end;
      t.pending.(u) <- t.pending.(u) +. moved;
      t.touches <- t.touches + 1
    end;
    moved

  let replay ?moved ?(lo = 0) ?hi t inters =
    let hi = match hi with Some hi -> hi | None -> Array.length inters in
    if lo < 0 || lo > hi || hi > Array.length inters then
      invalid_arg "Greedy.Kernel.replay: range out of bounds";
    let record, out =
      match moved with Some a -> (true, a) | None -> (false, Float.Array.create 0)
    in
    for j = lo to hi - 1 do
      let src, dst, (i : Interaction.t) = inters.(j) in
      let v = slot t src in
      let u = slot t dst in
      let m = step t v u i.time i.qty in
      if record then Float.Array.set out j m
    done

  let push t ~src ~dst (i : Interaction.t) =
    if src = dst then invalid_arg "Greedy.Kernel.push: self-loop";
    if i.time < t.clock.now then
      invalid_arg "Greedy.Kernel.push: timestamps must be non-decreasing";
    let v = slot t src in
    let u = slot t dst in
    step t v u i.time i.qty

  let buffer t v =
    match Hashtbl.find_opt t.slots v with
    | None -> 0.0
    | Some s when s = source_slot -> infinity
    | Some s -> t.avail.(s) +. t.pending.(s)

  let flow t = t.avail.(sink_slot) +. t.pending.(sink_slot)
  let now t = t.clock.now
  let touches t = t.touches
end

(* One scan of [g] in canonical order; [moved] receives the quantity
   each interaction moved, indexed like the returned interactions. *)
let scan ?moved g ~source ~sink =
  if source = sink then invalid_arg "Greedy: source = sink";
  let k = Kernel.create ~source ~sink in
  let inters = Graph.interactions_sorted g in
  Kernel.replay ?moved k inters;
  Obs.Counter.add c_touches (Kernel.touches k);
  (k, inters)

let flow g ~source ~sink = Kernel.flow (fst (scan g ~source ~sink))

let flow_trace g ~source ~sink =
  let moved = Float.Array.create (Graph.n_interactions g) in
  let k, inters = scan ~moved g ~source ~sink in
  let trace =
    List.init (Array.length inters) (fun j ->
        let src, dst, (i : Interaction.t) = inters.(j) in
        { src; dst; time = i.time; offered = i.qty; moved = Float.Array.get moved j })
  in
  (Kernel.flow k, trace)

let arrivals_at_sink g ~source ~sink =
  let moved = Float.Array.create (Graph.n_interactions g) in
  let _, inters = scan ~moved g ~source ~sink in
  let arrivals = ref [] in
  for j = Array.length inters - 1 downto 0 do
    let _, dst, (i : Interaction.t) = inters.(j) in
    let m = Float.Array.get moved j in
    if dst = sink && m > 0.0 then
      arrivals := Interaction.unchecked ~time:i.time ~qty:m :: !arrivals
  done;
  !arrivals

let buffers g ~source ~sink =
  let k, _ = scan g ~source ~sink in
  List.map (fun v -> (v, Kernel.buffer k v)) (Graph.vertices g)
