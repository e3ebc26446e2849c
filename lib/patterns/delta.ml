module Obs = Tin_obs.Obs

(* The streaming daemon applies deltas on a cadence; these make the
   incremental-versus-rebuild economics visible in a scrape. *)
let c_applies = Obs.Counter.make "delta.applies"
let c_rows = Obs.Counter.make "delta.rows_recomputed"

type t = { net : Compact.t; tables : Catalog.tables; rows_recomputed : int }

let create ?with_chains net =
  { net; tables = Catalog.precompute ?with_chains net; rows_recomputed = 0 }

(* Every row through edge [e = (u, v)], as [row a b c e0 e1 e2] with
   the conditions of the matching [Tables] builder: the path
   a → b (→ c) over edges e0, e1 (, e2), [c] and [e2] [-1] when
   unused. *)
let cycles2_through net e u v row =
  match Compact.find_edge net ~src:v ~dst:u with
  | Some e' ->
      row u v (-1) e e' (-1);
      row v u (-1) e' e (-1)
  | None -> ()

let cycles3_through net e u v row =
  Compact.iter_succs net v (fun w e_vw ->
      if w <> u && w <> v then
        match Compact.find_edge net ~src:w ~dst:u with
        | Some e_wu ->
            row u v w e e_vw e_wu;
            row v w u e_vw e_wu e;
            row w u v e_wu e e_vw
        | None -> ())

let chains2_through net e u v row =
  Compact.iter_succs net v (fun w e_vw -> if w <> u && w <> v then row u v w e e_vw (-1));
  Compact.iter_preds net u (fun w e_wu -> if w <> v then row w u v e_wu e (-1))

(* Rebuild the rows of [table] that run through a touched edge.  A row
   is listed from the lowest touched edge among its own, so each comes
   once.  The net only grows, so every old row is still a path and a
   row is stale exactly when it runs through a touched edge: the rows
   listed here are all the rows to recompute. *)
let update ~net ~ids ~touched ~edges ~rows ~name ~width ~hops through table =
  let stride = width + hops in
  let buf = ref (Array.make (16 * stride) 0) and len = ref 0 in
  let push x =
    if !len = Array.length !buf then buf := Array.append !buf !buf;
    !buf.(!len) <- x;
    incr len
  in
  let first e e' = e' < 0 || e' >= e || Bytes.get touched e' = '\000' in
  List.iter
    (fun e ->
      through net e (Compact.edge_src net e) (Compact.edge_dst net e) (fun a b c e0 e1 e2 ->
          if first e e0 && first e e1 && first e e2 then begin
            push a;
            push b;
            if width = 3 then push c;
            push e0;
            push e1;
            if hops = 3 then push e2
          end))
    edges;
  let buf = !buf and k = !len / stride in
  rows := !rows + k;
  let go () =
    let order = Array.init k Fun.id in
    let rec lex x y i =
      if i = width then 0
      else
        let c = Int.compare buf.((x * stride) + i) buf.((y * stride) + i) in
        if c <> 0 then c else lex x y (i + 1)
    in
    Array.stable_sort (fun x y -> lex x y 0) order;
    let verts = Array.make (k * width) 0 and eids = Array.make (k * hops) 0 in
    Array.iteri
      (fun j x ->
        Array.blit buf (x * stride) verts (j * width) width;
        Array.blit buf ((x * stride) + width) eids (j * hops) hops)
      order;
    let flows = Tables.chain_flows net ~hops eids in
    Tables.splice ?ids ~n_vertices:(Compact.n_vertices net) table verts flows
  in
  if Obs.recording () then
    Obs.Span.with_ "delta.rows" ~args:[ ("table", name); ("rows", string_of_int k) ] go
  else go ()

let apply t ~additions =
  List.iter
    (fun (s, d, _) -> if s = d then invalid_arg "Delta.apply: self-loop addition")
    additions;
  Obs.Span.with_ "delta.apply" @@ fun () ->
  let net = Obs.Span.with_ "delta.merge" (fun () -> Compact.merge t.net additions) in
  (* Old ids move to the rank of their label among the grown net's
     labels, which keep every old one. *)
  let n_old = Compact.n_vertices t.net in
  let id l = Option.get (Compact.vertex_of_label net l) in
  let ids =
    if Compact.n_vertices net = n_old then None
    else Some (Array.init n_old (fun v -> id (Compact.label t.net v)))
  in
  let touched = Bytes.make (Compact.n_edges net) '\000' in
  let edges =
    List.fold_left
      (fun acc (s, d, _) ->
        let e = Option.get (Compact.find_edge net ~src:(id s) ~dst:(id d)) in
        if Bytes.get touched e <> '\000' then acc
        else begin
          Bytes.set touched e '\001';
          e :: acc
        end)
      [] additions
  in
  let rows = ref 0 in
  let update = update ~net ~ids ~touched ~edges ~rows in
  let l2 = update ~name:"l2" ~width:2 ~hops:2 cycles2_through t.tables.Catalog.l2 in
  let l3 = update ~name:"l3" ~width:3 ~hops:3 cycles3_through t.tables.Catalog.l3 in
  let c2 = Option.map (update ~name:"c2" ~width:3 ~hops:2 chains2_through) t.tables.Catalog.c2 in
  Obs.Counter.incr c_applies;
  Obs.Counter.add c_rows !rows;
  { net; tables = { Catalog.l2; l3; c2 }; rows_recomputed = t.rows_recomputed + !rows }
