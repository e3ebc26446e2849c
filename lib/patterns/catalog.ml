module Endpoints = Tin_core.Endpoints
module Pipeline = Tin_core.Pipeline
module Simplify = Tin_core.Simplify
module Batch = Tin_core.Batch
module Obs = Tin_obs.Obs

let c_tickets = Obs.Counter.make "catalog.tickets"
let c_deadline_hits = Obs.Counter.make "catalog.deadline_hits"
let c_anchors = Obs.Counter.make "catalog.anchors"

type rigid = P1 | P2 | P3 | P4 | P5 | P6
type relaxed = RP1 | RP2 | RP3
type pattern = Rigid of rigid | Relaxed of relaxed

let all_rigid = [ P1; P2; P3; P4; P5; P6 ]
let all_relaxed = [ RP1; RP2; RP3 ]
let all = List.map (fun p -> Rigid p) all_rigid @ List.map (fun p -> Relaxed p) all_relaxed

let pattern_name = function
  | Rigid P1 -> "P1"
  | Rigid P2 -> "P2"
  | Rigid P3 -> "P3"
  | Rigid P4 -> "P4"
  | Rigid P5 -> "P5"
  | Rigid P6 -> "P6"
  | Relaxed RP1 -> "RP1"
  | Relaxed RP2 -> "RP2"
  | Relaxed RP3 -> "RP3"

let rigid_pattern = function
  | P1 -> Pattern.make ~name:"P1" ~labels:[| 0; 1; 2 |] ~edges:[ (0, 1); (1, 2) ]
  | P2 -> Pattern.make ~name:"P2" ~labels:[| 0; 1; 0 |] ~edges:[ (0, 1); (1, 2) ]
  | P3 -> Pattern.make ~name:"P3" ~labels:[| 0; 1; 2; 0 |] ~edges:[ (0, 1); (1, 2); (2, 3) ]
  | P4 ->
      Pattern.make ~name:"P4" ~labels:[| 0; 1; 2; 0 |] ~edges:[ (0, 1); (1, 2); (2, 3); (1, 3) ]
  | P5 ->
      Pattern.make ~name:"P5" ~labels:[| 0; 1; 2; 3; 0 |]
        ~edges:[ (0, 1); (1, 4); (0, 2); (2, 3); (3, 4) ]
  | P6 ->
      Pattern.make ~name:"P6" ~labels:[| 0; 1; 2; 0 |]
        ~edges:[ (0, 1); (1, 2); (2, 3); (0, 2); (1, 3) ]

let needs_chains = function
  | Rigid P1 | Relaxed RP1 -> true
  | Rigid (P2 | P3 | P4 | P5 | P6) | Relaxed (RP2 | RP3) -> false

type result = { instances : int; total_flow : float; truncated : bool; timed_out : bool }

let avg_flow r = if r.instances = 0 then 0.0 else r.total_flow /. float_of_int r.instances

type tables = { l2 : Tables.t; l3 : Tables.t; c2 : Tables.t option }

let precompute ?jobs ?(with_chains = false) net =
  {
    l2 = Tables.cycles2 ?jobs net;
    l3 = Tables.cycles3 ?jobs net;
    c2 = (if with_chains then Some (Tables.chains2 ?jobs net) else None);
  }

(* ------------------------------------------------------------------ *)
(* Shared search state                                                 *)
(* ------------------------------------------------------------------ *)

(* Both searches shard the anchor range (pattern vertex 0) across
   domains with [Batch.map_reduce].  A shared atomic ticket counter
   enforces the global instance limit; [stop] winds every domain down
   cooperatively on truncation or deadline, and the flag atomics
   record why.  Each chunk of anchors folds into a private [local]
   accumulator, and chunk accumulators merge in anchor order, so an
   untruncated search returns bit-identical results for every job
   count. *)
type shared = {
  limit : int;
  deadline : int64 option; (* monotonic ns *)
  tickets : int Atomic.t;
  stop : bool Atomic.t;
  truncated : bool Atomic.t;
  timed_out : bool Atomic.t;
}

type local = { mutable count : int; mutable flow : float }

let make_shared ?time_budget_ms limit =
  let deadline =
    Option.map
      (fun ms -> Int64.add (Tin_util.Timer.now_ns ()) (Int64.of_float (ms *. 1e6)))
      time_budget_ms
  in
  {
    limit;
    deadline;
    tickets = Atomic.make 0;
    stop = Atomic.make false;
    truncated = Atomic.make false;
    timed_out = Atomic.make false;
  }

exception Done

let expired sh =
  match sh.deadline with
  | Some d when Tin_util.Timer.now_ns () > d -> true
  | _ -> false

let time_out sh =
  Atomic.set sh.truncated true;
  (* Exchange rather than set: the deadline-hit counter records one hit
     per search even when several domains notice expiry together. *)
  if not (Atomic.exchange sh.timed_out true) then Obs.Counter.incr c_deadline_hits;
  Atomic.set sh.stop true

let truncate sh =
  Atomic.set sh.truncated true;
  Atomic.set sh.stop true

(* Unmasked stop check — for [Pattern.browse], which rate-limits its
   own polling. *)
let check_stop sh () =
  if Atomic.get sh.stop then true
  else if expired sh then begin
    time_out sh;
    true
  end
  else false

(* Self-masked variant for hand-rolled join loops (polling inside dry
   spells, when no instance is found for a while). *)
let stopper sh =
  let probes = ref 0 in
  fun () ->
    incr probes;
    if !probes land 0xFFF <> 0 then false else check_stop sh ()

let add sh local f =
  let ticket = Atomic.fetch_and_add sh.tickets 1 in
  Obs.Counter.incr c_tickets;
  if ticket >= sh.limit then begin
    (* Another domain's instance already consumed the last slot. *)
    truncate sh;
    raise Done
  end;
  local.count <- local.count + 1;
  local.flow <- local.flow +. f;
  if ticket = sh.limit - 1 then begin
    truncate sh;
    raise Done
  end;
  if expired sh then begin
    time_out sh;
    raise Done
  end

(* Chunk size for anchor sharding: fixed (never derived from [jobs])
   so that the merge tree — and hence float accumulation order — is
   the same for every job count. *)
let anchor_chunk = 16

(* Run [body local anchor] over every anchor and merge.  [Done] aborts
   one anchor's walk; the shared [stop] flag then keeps the remaining
   anchors from doing any real work.  [name] labels the observability
   spans (one per search plus, when tracing, one per anchor). *)
let search ?(jobs = 1) sh ~name ~n body =
  let run_anchor local a =
    Obs.Counter.incr c_anchors;
    let go () = try body local a with Done -> () in
    if Obs.recording () then
      Obs.Span.with_ "catalog.anchor"
        ~args:[ ("pattern", name); ("anchor", string_of_int a) ]
        go
    else go ()
  in
  let run () =
    Batch.map_reduce ~jobs ~chunk:anchor_chunk ~stop:sh.stop ~n
      ~init:(fun () -> { count = 0; flow = 0.0 })
      ~body:run_anchor
      ~merge:(fun a b -> { count = a.count + b.count; flow = a.flow +. b.flow })
      ()
  in
  let merged =
    if Obs.recording () then
      Obs.Span.with_ "catalog.search"
        ~args:[ ("pattern", name); ("anchors", string_of_int n) ]
        run
    else run ()
  in
  {
    instances = merged.count;
    total_flow = merged.flow;
    truncated = Atomic.get sh.truncated;
    timed_out = Atomic.get sh.timed_out;
  }

(* Maximum flow of a cyclic instance anchored at [anchor]. *)
let cyclic_instance_flow net eids ~anchor =
  let g = Compact.edges_to_graph net eids in
  let ep = Endpoints.split g ~vertex:(Compact.label net anchor) in
  Pipeline.max_flow ep.Endpoints.graph ~source:ep.Endpoints.source ~sink:ep.Endpoints.sink

(* ------------------------------------------------------------------ *)
(* Graph browsing                                                      *)
(* ------------------------------------------------------------------ *)

(* Hybrid mode (GB + tables, after Semertzidis & Pitoura's hybrid
   temporal pattern matching): when the pattern's edges form the
   single path 0→1→…→n-1, every instance found by browsing maps onto
   exactly one precomputed row — a 2/3-cycle when source and sink
   share a label, a 2-hop chain otherwise — so the per-instance flow
   is an O(log) table lookup instead of a subgraph rebuild plus a
   greedy/LP solve. *)
let simple_shape (pat : Pattern.t) =
  let path = List.init (pat.Pattern.n - 1) (fun i -> (i, i + 1)) in
  if List.sort compare pat.Pattern.edges <> path then `General
  else if Pattern.is_cyclic_shape pat then
    match pat.Pattern.n with 3 -> `Cycle2 | 4 -> `Cycle3 | _ -> `General
  else if pat.Pattern.n = 3 then `Chain2
  else `General

let instance_flow_fn ?tables net pat =
  let fallback mu = Pattern.instance_flow net pat mu in
  let lookup tbl key_of mu =
    match Tables.find tbl (key_of mu) with Some r -> Tables.flow tbl r | None -> fallback mu
  in
  match tables with
  | None -> fallback
  | Some tb -> (
      match simple_shape pat with
      | `Cycle2 -> lookup tb.l2 (fun mu -> [| mu.(0); mu.(1) |])
      | `Cycle3 -> lookup tb.l3 (fun mu -> [| mu.(0); mu.(1); mu.(2) |])
      | `Chain2 -> (
          match tb.c2 with
          | Some c2 -> lookup c2 (fun mu -> [| mu.(0); mu.(1); mu.(2) |])
          | None -> fallback)
      | `General -> fallback)

(* P5 is the one composite catalog shape the tables still cover: its
   instance is a 2-cycle [a→b→a] and a 3-cycle [a→c→e→a] joined only
   at the anchor, whose flows add (Lemma 2 after the split) — the same
   decomposition the PB merge-join uses. *)
let p5_hybrid_flow net tb pat mu =
  match
    (Tables.find tb.l2 [| mu.(0); mu.(1) |], Tables.find tb.l3 [| mu.(0); mu.(2); mu.(3) |])
  with
  | Some r2, Some r3 -> Tables.flow tb.l2 r2 +. Tables.flow tb.l3 r3
  | _ -> Pattern.instance_flow net pat mu

let gb_with ?jobs ?(limit = max_int) ?time_budget_ms net pat flow_of =
  let sh = make_shared ?time_budget_ms limit in
  let body local a =
    Pattern.browse ~should_stop:(check_stop sh) ~anchor:a net pat
      (fun mu -> add sh local (flow_of mu))
  in
  search ?jobs sh ~name:pat.Pattern.name ~n:(Compact.n_vertices net) body

let gb_custom ?jobs ?limit ?time_budget_ms ?tables net pat =
  gb_with ?jobs ?limit ?time_budget_ms net pat (instance_flow_fn ?tables net pat)

let gb_rigid ?jobs ?limit ?time_budget_ms ?tables net r =
  let pat = rigid_pattern r in
  let flow_of =
    match (r, tables) with
    | P5, Some tb -> p5_hybrid_flow net tb pat
    | _ -> instance_flow_fn ?tables net pat
  in
  gb_with ?jobs ?limit ?time_budget_ms net pat flow_of

(* Relaxed patterns aggregate the flows of all short paths per anchor
   (Section 5.3): one instance per anchor (RP2/RP3) or per endpoint
   pair (RP1). *)
let gb_relaxed ?jobs ?(limit = max_int) ?time_budget_ms net r =
  let sh = make_shared ?time_budget_ms limit in
  let body =
    match r with
    | RP2 ->
        fun local a ->
          let poll =
            let stop = stopper sh in
            fun () -> if stop () then raise Done
          in
          let flow = ref 0.0 and found = ref false in
          Compact.iter_succs net a (fun b e_ab ->
              poll ();
              match Compact.find_edge net ~src:b ~dst:a with
              | Some e_ba ->
                  found := true;
                  flow := !flow +. Tables.chain_flow net [| e_ab; e_ba |]
              | None -> ());
          if !found then add sh local !flow
    | RP3 ->
        fun local a ->
          let poll =
            let stop = stopper sh in
            fun () -> if stop () then raise Done
          in
          let flow = ref 0.0 and found = ref false in
          Compact.iter_succs net a (fun b e_ab ->
              if b <> a then
                Compact.iter_succs net b (fun c e_bc ->
                    poll ();
                    if c <> a && c <> b then
                      match Compact.find_edge net ~src:c ~dst:a with
                      | Some e_ca ->
                          found := true;
                          flow := !flow +. Tables.chain_flow net [| e_ab; e_bc; e_ca |]
                      | None -> ()));
          if !found then add sh local !flow
    | RP1 ->
        fun local a ->
          let poll =
            let stop = stopper sh in
            fun () -> if stop () then raise Done
          in
          (* Aggregate 2-hop chain flows per final vertex c. *)
          let per_c = Hashtbl.create 16 in
          Compact.iter_succs net a (fun b e_ab ->
              Compact.iter_succs net b (fun c e_bc ->
                  poll ();
                  if c <> a && c <> b then begin
                    let f = Tables.chain_flow net [| e_ab; e_bc |] in
                    let prev = Option.value ~default:0.0 (Hashtbl.find_opt per_c c) in
                    Hashtbl.replace per_c c (prev +. f)
                  end));
          (* Deterministic per-c order. *)
          Hashtbl.fold (fun c f l -> (c, f) :: l) per_c []
          |> List.sort compare
          |> List.iter (fun (_, f) -> add sh local f)
  in
  search ?jobs sh ~name:(pattern_name (Relaxed r)) ~n:(Compact.n_vertices net) body

let gb ?jobs ?limit ?time_budget_ms ?tables net = function
  | Rigid r -> gb_rigid ?jobs ?limit ?time_budget_ms ?tables net r
  | Relaxed r -> gb_relaxed ?jobs ?limit ?time_budget_ms net r

(* ------------------------------------------------------------------ *)
(* Precomputation-based search                                         *)
(* ------------------------------------------------------------------ *)

let require_chains tables =
  match tables.c2 with
  | Some t -> t
  | None -> invalid_arg "Catalog.pb: pattern needs the 2-hop chain table (precompute ~with_chains:true)"

let edge_exn net ~src ~dst =
  match Compact.find_edge net ~src ~dst with
  | Some e -> e
  | None -> assert false (* table rows are real paths *)

(* Sum a start vertex's row flows; [false] when the vertex has no
   rows (its anchor contributes no relaxed instance). *)
let sum_start tbl a flow =
  let found = ref false in
  Tables.iter_start tbl a (fun r ->
      found := true;
      flow := !flow +. Tables.flow tbl r);
  !found

let pb ?jobs ?(limit = max_int) ?time_budget_ms net tables pattern =
  let sh = make_shared ?time_budget_ms limit in
  (* Per-anchor search bodies: every pattern's PB plan walks rows
     grouped by their start vertex, so the anchor range shards it
     exactly like GB.  Chain-table presence is checked eagerly, before
     any domain spawns. *)
  let body =
    match pattern with
    | Rigid P1 ->
        let c2 = require_chains tables in
        fun local a -> Tables.iter_start c2 a (fun r -> add sh local (Tables.flow c2 r))
    | Rigid P2 ->
        let l2 = tables.l2 in
        fun local a -> Tables.iter_start l2 a (fun r -> add sh local (Tables.flow l2 r))
    | Rigid P3 ->
        let l3 = tables.l3 in
        fun local a -> Tables.iter_start l3 a (fun r -> add sh local (Tables.flow l3 r))
    | Rigid P4 ->
        (* 3-hop cycle + chord b→a: the precomputed flow is unusable
           (the cycle is not isolated in the instance); the instance
           is rebuilt and solved by the Section-4 pipeline. *)
        fun local a ->
          let poll =
            let stop = stopper sh in
            fun () -> if stop () then raise Done
          in
          Tables.iter_start tables.l3 a (fun r ->
              poll ();
              let b = Tables.vert tables.l3 r 1 and c = Tables.vert tables.l3 r 2 in
              match Compact.find_edge net ~src:b ~dst:a with
              | Some e_ba ->
                  let eids =
                    [
                      edge_exn net ~src:a ~dst:b;
                      edge_exn net ~src:b ~dst:c;
                      edge_exn net ~src:c ~dst:a;
                      e_ba;
                    ]
                  in
                  add sh local (cyclic_instance_flow net eids ~anchor:a)
              | None -> ())
    | Rigid P5 ->
        (* Merge-join of L2 and L3 on the anchor vertex; flows add up
           because the two cycles are vertex-disjoint chains after the
           split (Lemma 2 applies to the joint instance). *)
        fun local a ->
          let poll =
            let stop = stopper sh in
            fun () -> if stop () then raise Done
          in
          let l2 = tables.l2 and l3 = tables.l3 in
          Tables.iter_start l2 a (fun r2 ->
              let b = Tables.vert l2 r2 1 in
              Tables.iter_start l3 a (fun r3 ->
                  poll ();
                  let c = Tables.vert l3 r3 1 and e = Tables.vert l3 r3 2 in
                  if b <> c && b <> e then add sh local (Tables.flow l2 r2 +. Tables.flow l3 r3)))
    | Rigid P6 ->
        fun local a ->
          let poll =
            let stop = stopper sh in
            fun () -> if stop () then raise Done
          in
          Tables.iter_start tables.l3 a (fun r ->
              poll ();
              let b = Tables.vert tables.l3 r 1 and c = Tables.vert tables.l3 r 2 in
              match (Compact.find_edge net ~src:a ~dst:c, Compact.find_edge net ~src:b ~dst:a) with
              | Some e_ac, Some e_ba ->
                  let eids =
                    [
                      edge_exn net ~src:a ~dst:b;
                      edge_exn net ~src:b ~dst:c;
                      edge_exn net ~src:c ~dst:a;
                      e_ac;
                      e_ba;
                    ]
                  in
                  add sh local (cyclic_instance_flow net eids ~anchor:a)
              | _ -> ())
    | Relaxed RP1 ->
        let c2 = require_chains tables in
        fun local a ->
          let per_c = Hashtbl.create 16 in
          Tables.iter_start c2 a (fun r ->
              let c = Tables.vert c2 r 2 in
              let prev = Option.value ~default:0.0 (Hashtbl.find_opt per_c c) in
              Hashtbl.replace per_c c (prev +. Tables.flow c2 r));
          Hashtbl.fold (fun c f l -> (c, f) :: l) per_c []
          |> List.sort compare
          |> List.iter (fun (_, f) -> add sh local f)
    | Relaxed RP2 ->
        fun local a ->
          let flow = ref 0.0 in
          if sum_start tables.l2 a flow then add sh local !flow
    | Relaxed RP3 ->
        fun local a ->
          let flow = ref 0.0 in
          if sum_start tables.l3 a flow then add sh local !flow
  in
  search ?jobs sh ~name:(pattern_name pattern) ~n:(Compact.n_vertices net) body
