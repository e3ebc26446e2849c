(* Shared alcotest/qcheck plumbing. *)

let approx ?(eps = 1e-6) () =
  Alcotest.testable
    (fun ppf f -> Format.fprintf ppf "%.9g" f)
    (fun a b -> Tin_util.Fcmp.approx_eq ~eps a b)

let flow = approx ()

let check_flow msg expected actual = Alcotest.check flow msg expected actual

(* Bit-for-bit float equality, printed in hex so that a one-ulp
   difference shows. *)
let exact = Alcotest.testable (fun ppf f -> Format.fprintf ppf "%h" f) Float.equal

let graph =
  Alcotest.testable (fun ppf g -> Graph.pp ppf g) Graph.equal

let interactions =
  Alcotest.testable
    (fun ppf is -> Interaction.pp_list ppf is)
    (List.equal Interaction.equal)

(* [Graph.equal] compares the vertex sets and the out-maps only; this
   also compares every vertex's in-row and the cached counts. *)
let same_graph a b =
  let rows_equal =
    List.equal (fun (u, is) (u', is') -> u = u' && List.equal Interaction.equal is is')
  in
  Graph.equal a b
  && Graph.n_edges a = Graph.n_edges b
  && Graph.n_interactions a = Graph.n_interactions b
  && List.for_all (fun v -> rows_equal (Graph.in_edges a v) (Graph.in_edges b v)) (Graph.vertices a)

(* The reference for [Compact.to_graph] and [Compact.edges_to_graph]:
   one [Graph.add_edge] per edge, skipping repeated ids, starting from
   [g].  Edges may come in any order. *)
let add_edges_by_fold g net eids =
  let seen = Hashtbl.create 16 in
  List.fold_left
    (fun g e ->
      if Hashtbl.mem seen e then g
      else begin
        Hashtbl.add seen e ();
        Graph.add_edge g
          ~src:(Compact.label net (Compact.edge_src net e))
          ~dst:(Compact.label net (Compact.edge_dst net e))
          (Compact.edge_interactions net e)
      end)
    g eids

(* Every label a vertex, then every edge folded in. *)
let to_graph_by_fold net =
  let labels = List.init (Compact.n_vertices net) (Compact.label net) in
  add_edges_by_fold (List.fold_left Graph.add_vertex Graph.empty labels) net
    (List.init (Compact.n_edges net) Fun.id)

(* qcheck property over a PRNG seed, registered as an alcotest case. *)
let seeded_property ?(count = 200) name prop =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name ~count QCheck.(small_int) (fun seed ->
         prop (Tin_util.Prng.create ~seed)))

(* Words allocated on both heaps so far, large arrays allocated
   straight in the major heap included.  [Gc.minor_words] is exact;
   [Gc.allocated_bytes] is not used because on OCaml 5.1 it undercounts
   the minor words allocated since the last minor collection.  OCaml
   5.1 also adds the words allocated straight in the major heap to the
   statistics only at a collection, hence the minor collection. *)
let allocated_words () =
  Gc.minor ();
  let s = Gc.quick_stat () in
  Gc.minor_words () +. s.Gc.major_words -. s.Gc.promoted_words

(* A path table's rows in id order — the order [Tables.find] and
   [Tables.iter_start] rely on — as (vertices, flow). *)
let table_rows t =
  let module Tables = Tin_patterns.Tables in
  List.init (Tables.n_rows t) (fun r ->
      (List.init (Tables.width t) (Tables.vert t r), Tables.flow t r))

(* Delta-maintained tables against a fresh precomputation over the
   same net: row for row in id order, flows bit for bit. *)
let tables_match_precompute msg (d : Tin_patterns.Delta.t) =
  let module Catalog = Tin_patterns.Catalog in
  let full = Catalog.precompute ~with_chains:(d.tables.c2 <> None) d.net in
  let check part a b =
    Alcotest.(check (list (pair (list int) exact)))
      (msg ^ ": " ^ part) (table_rows b) (table_rows a)
  in
  check "L2" d.tables.l2 full.l2;
  check "L3" d.tables.l3 full.l3;
  match (d.tables.c2, full.c2) with
  | Some a, Some b -> check "chains" a b
  | None, None -> ()
  | _ -> Alcotest.fail (msg ^ ": chain-table presence mismatch")
