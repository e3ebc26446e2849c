module TE = Tin_maxflow.Time_expand
module Net = Tin_maxflow.Net
module Dinic = Tin_maxflow.Dinic

type leg = {
  src : Graph.vertex;
  dst : Graph.vertex;
  time : float;
  offered : float;
  inter : int;
}

type path = { legs : leg list; amount : float }

type usage = {
  u_inter : int;
  u_src : Graph.vertex;
  u_dst : Graph.vertex;
  u_time : float;
  u_offered : float;
  u_carried : float;
}

let eps = Tin_util.Fcmp.(default_policy.pivot_eps)

let max_flow_paths g ~source ~sink =
  let te = TE.build g ~source ~sink in
  let net = te.TE.net in
  let value = Dinic.max_flow net ~source:te.TE.source_node ~sink:te.TE.sink_node in
  (* Remaining (not yet peeled) flow per slot, kept either above [eps]
     or at 0: only forward arcs carry positive flow, since a residual
     twin's is minus its forward arc's. *)
  let remaining =
    Array.init (Array.length net.Net.res) (fun a ->
        let f = Net.flow net a in
        if f > eps then f else 0.0)
  in
  (* Scan-order index of the interaction each slot realises; -1 for
     holdover arcs and residual twins. *)
  let inter_of = Array.make (Array.length net.Net.res) (-1) in
  Array.iteri (fun k a -> if a >= 0 then inter_of.(a) <- k) te.TE.interaction_arcs;
  (* Next slot to try per node: remaining flow only decreases, so a slot
     once at 0 is passed for good. *)
  let cursor = Array.sub net.Net.first 0 net.Net.n in
  let pick_arc node =
    let stop = net.Net.first.(node + 1) in
    while cursor.(node) < stop && remaining.(cursor.(node)) = 0.0 do
      cursor.(node) <- cursor.(node) + 1
    done;
    if cursor.(node) < stop then Some cursor.(node) else None
  in
  (* Walk S -> T along positive arcs.  The expanded graph is a DAG, so
     a walk either reaches T or dead-ends at a node whose outgoing
     remaining flow has leaked away (arcs at or below [eps] are dropped
     when [remaining] is built and when peeling decrements them, so a
     node's recorded inflow can exceed its recorded outflow by a few
     eps-sized crumbs). *)
  let rec walk node acc bottleneck =
    if node = te.TE.sink_node then `Complete (List.rev acc, bottleneck)
    else
      match pick_arc node with
      | None -> `Stuck acc (* reversed: head = arc into the dead end *)
      | Some a -> walk net.Net.head.(a) (a :: acc) (Float.min bottleneck remaining.(a))
  in
  let paths = ref [] in
  let continue = ref true in
  while !continue do
    match walk te.TE.source_node [] infinity with
    | `Stuck [] -> continue := false (* source exhausted: decomposition done *)
    | `Stuck (last :: _) ->
        (* A dead end strands the crumbs carried by the arc leading into
           it: no later walk can extend past that node either (remaining
           flow only decreases), so discard the arc and keep peeling the
           other paths.  Stopping the whole loop here — the old
           behaviour — abandoned arbitrarily large flow still waiting on
           sibling branches. *)
        remaining.(last) <- 0.0
    | `Complete (arcs, bottleneck) ->
        (* Every picked arc is above [eps], so the bottleneck is too, and
           peeling it zeroes at least the bottleneck arc. *)
        List.iter
          (fun a ->
            let f' = remaining.(a) -. bottleneck in
            remaining.(a) <- (if f' > eps then f' else 0.0))
          arcs;
        let legs =
          List.filter_map
            (fun a ->
              let inter = inter_of.(a) in
              if inter < 0 then None (* holdover arc: waiting, not a transfer *)
              else
                let src, dst, i = te.TE.interactions.(inter) in
                Some { src; dst; time = Interaction.time i; offered = Interaction.qty i; inter })
            arcs
        in
        paths := { legs; amount = bottleneck } :: !paths
  done;
  (value, List.rev !paths)

let per_interaction paths =
  let tbl : (int, usage) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun p ->
      List.iter
        (fun leg ->
          match Hashtbl.find_opt tbl leg.inter with
          | Some u -> Hashtbl.replace tbl leg.inter { u with u_carried = u.u_carried +. p.amount }
          | None ->
              Hashtbl.replace tbl leg.inter
                {
                  u_inter = leg.inter;
                  u_src = leg.src;
                  u_dst = leg.dst;
                  u_time = leg.time;
                  u_offered = leg.offered;
                  u_carried = p.amount;
                })
        p.legs)
    paths;
  Hashtbl.fold (fun _ u acc -> u :: acc) tbl []
  |> List.sort (fun a b -> Int.compare a.u_inter b.u_inter)
