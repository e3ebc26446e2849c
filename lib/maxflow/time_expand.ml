type t = {
  net : Net.t;
  source_node : int;
  sink_node : int;
  n_event_nodes : int;
  interactions : (Graph.vertex * Graph.vertex * Interaction.t) array;
  interaction_arcs : Net.arc array;
}

(* Arc columns, grown by doubling while the scan emits arcs. *)
type columns = {
  mutable m : int;
  mutable src : int array;
  mutable dst : int array;
  mutable cap : float array;
}

let add_arc c ~src ~dst ~cap =
  if c.m = Array.length c.src then begin
    let grow a z =
      let g = Array.make (2 * c.m) z in
      Array.blit a 0 g 0 c.m;
      g
    in
    c.src <- grow c.src 0;
    c.dst <- grow c.dst 0;
    c.cap <- grow c.cap 0.0
  end;
  c.src.(c.m) <- src;
  c.dst.(c.m) <- dst;
  c.cap.(c.m) <- cap;
  c.m <- c.m + 1;
  c.m - 1

(* Dense index of a vertex in the sorted vertex array. *)
let index verts v =
  let lo = ref 0 and hi = ref (Array.length verts - 1) in
  while verts.(!lo) <> v do
    let mid = (!lo + !hi) / 2 in
    if verts.(mid) < v then lo := mid + 1 else hi := mid
  done;
  !lo

(* One pass over the interactions in scan order.  Each vertex other
   than the source and the sink keeps two nodes for its latest event
   time τ: [pre], which departures at τ draw from (what was buffered
   strictly before τ), and [post], which arrivals at τ land in.  At a
   new event time τ' the old [post] carries everything held across the
   interval.  With an unbounded buffer it becomes the new [pre] itself:
   in a two-node layout it would be joined to the new [pre] by their
   only arc, of infinite capacity, so contracting them is exact.  With
   a finite capacity c the new [pre] is a fresh node behind a carry arc
   of capacity c, which charges everything held across the interval —
   including quantity leaving at τ' — against c.  Either way [pre] →
   [post] is infinite (same instant, no storage involved).  A vertex's
   first event has no [pre]: nothing is buffered before it. *)
let build ?(buffer_capacity = fun _ -> infinity) g ~source ~sink =
  if source = sink then invalid_arg "Time_expand.build: source = sink";
  if Graph.n_vertices g > 0 && not (Graph.mem_vertex g source && Graph.mem_vertex g sink) then
    invalid_arg "Time_expand.build: source or sink not in graph";
  let interactions = Graph.interactions_sorted g in
  (* Big-M stand-in for infinite quantities. *)
  let big_m =
    Array.fold_left
      (fun acc (_, _, i) ->
        let q = Interaction.qty i in
        if Float.is_finite q then acc +. q else acc)
      0.0 interactions
    +. 1.0
  in
  let verts = Array.of_list (Graph.vertices g) in
  let nv = Array.length verts in
  let pre = Array.make nv (-1) and post = Array.make nv (-1) in
  let last = Array.make nv neg_infinity and buffer = Array.make nv infinity in
  let source_node = 0 and sink_node = 1 in
  let n_nodes = ref 2 in
  let node () =
    incr n_nodes;
    !n_nodes - 1
  in
  let cols = { m = 0; src = Array.make 64 0; dst = Array.make 64 0; cap = Array.make 64 0.0 } in
  let event v tm =
    let x = index verts v in
    if post.(x) < 0 then begin
      let c = buffer_capacity v in
      if Float.is_nan c || c < 0.0 then invalid_arg "Time_expand.build: bad buffer capacity";
      buffer.(x) <- c;
      post.(x) <- node ()
    end
    else if tm > last.(x) then begin
      let from =
        if buffer.(x) < infinity then begin
          let b = node () in
          ignore (add_arc cols ~src:post.(x) ~dst:b ~cap:buffer.(x));
          b
        end
        else post.(x)
      in
      let a = node () in
      ignore (add_arc cols ~src:from ~dst:a ~cap:infinity);
      pre.(x) <- from;
      post.(x) <- a
    end;
    last.(x) <- tm;
    x
  in
  let interaction_arcs =
    Array.map
      (fun (v, u, i) ->
        let tm = Interaction.time i and q = Interaction.qty i in
        let from =
          if v = source then source_node else if v = sink then -1 else pre.(event v tm)
        in
        let into =
          if u = sink then sink_node else if u = source then -1 else post.(event u tm)
        in
        (* No arc when nothing can reach the sender before [tm] (its
           first event, or the sink sending on) or the receiver is the
           infinite-buffer source, which gains nothing. *)
        if from < 0 || into < 0 then -1
        else add_arc cols ~src:from ~dst:into ~cap:(if Float.is_finite q then q else big_m))
      interactions
  in
  let net =
    Net.of_arcs ~n:!n_nodes ~src:(Array.sub cols.src 0 cols.m) ~dst:(Array.sub cols.dst 0 cols.m)
      ~cap:(Array.sub cols.cap 0 cols.m)
  in
  {
    net;
    source_node;
    sink_node;
    n_event_nodes = !n_nodes - 2;
    interactions;
    interaction_arcs = Array.map (fun k -> if k < 0 then -1 else net.Net.fwd.(k)) interaction_arcs;
  }

let max_flow ?buffer_capacity g ~source ~sink =
  let { net; source_node; sink_node; _ } = build ?buffer_capacity g ~source ~sink in
  Dinic.max_flow net ~source:source_node ~sink:sink_node

type solution = {
  value : float;
  interaction_flows : ((Graph.vertex * Graph.vertex * Interaction.t) * float) list;
}

let max_flow_detailed ?buffer_capacity g ~source ~sink =
  let te = build ?buffer_capacity g ~source ~sink in
  let value = Dinic.max_flow te.net ~source:te.source_node ~sink:te.sink_node in
  let flows = ref [] in
  for k = Array.length te.interactions - 1 downto 0 do
    let a = te.interaction_arcs.(k) in
    if a >= 0 then flows := (te.interactions.(k), Net.flow te.net a) :: !flows
  done;
  { value; interaction_flows = !flows }
