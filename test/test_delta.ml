(* Delta maintenance of the path tables (the paper's footnote 2):
   applying additions incrementally must give exactly the tables a
   full precomputation over the grown network would. *)

open Tin_testlib
module Tables = Tin_patterns.Tables
module Catalog = Tin_patterns.Catalog
module Delta = Tin_patterns.Delta
module Prng = Tin_util.Prng

let i_ t q = Interaction.make ~time:t ~qty:q

let check_state_matches_full = Check.tables_match_precompute

let test_new_cycle_appears () =
  (* 0->1 exists; adding 1->0 creates the 2-cycle (both anchors). *)
  let net = Compact.of_entries [ (0, 1, i_ 1.0 5.0) ] in
  let d = Delta.create ~with_chains:true net in
  Alcotest.(check int) "no cycles yet" 0 (Tables.n_rows d.Delta.tables.Catalog.l2);
  let d = Delta.apply d ~additions:[ (1, 0, i_ 2.0 3.0) ] in
  Alcotest.(check int) "two anchored rows" 2 (Tables.n_rows d.Delta.tables.Catalog.l2);
  check_state_matches_full "new cycle" d

let test_existing_row_refreshed () =
  (* A second interaction on 0->1 changes the cycle's flow. *)
  let net = Compact.of_entries [ (0, 1, i_ 1.0 5.0); (1, 0, i_ 2.0 3.0) ] in
  let d = Delta.create net in
  let flow_before = Tables.flow d.Delta.tables.Catalog.l2 0 in
  Alcotest.(check (float 1e-9)) "initial cycle flow" 3.0 flow_before;
  (* New early interaction on the return edge raises the flow: 0->1
     delivers 5 at t=1; 1->0 can now return at t=2 (3) and t=4 (2). *)
  let d = Delta.apply d ~additions:[ (1, 0, i_ 4.0 2.0) ] in
  check_state_matches_full "refresh" d;
  let row = Option.get (Tables.find d.Delta.tables.Catalog.l2 [| 0; 1 |]) in
  Alcotest.(check (float 1e-9)) "updated flow" 5.0 (Tables.flow d.Delta.tables.Catalog.l2 row);
  Alcotest.(check bool) "rows were recomputed" true (d.Delta.rows_recomputed > 0)

let test_untouched_rows_survive () =
  (* A disjoint cycle must not be recomputed. *)
  let net =
    Compact.of_entries
      [
        (0, 1, i_ 1.0 5.0);
        (1, 0, i_ 2.0 3.0);
        (10, 11, i_ 1.0 7.0);
        (11, 10, i_ 2.0 7.0);
      ]
  in
  let d = Delta.create net in
  let d = Delta.apply d ~additions:[ (0, 1, i_ 5.0 1.0) ] in
  check_state_matches_full "disjoint survives" d;
  (* Only the touched cycle's two anchored rows get rebuilt. *)
  Alcotest.(check int) "two rows recomputed" 2 d.Delta.rows_recomputed

let test_new_vertices () =
  let net = Compact.of_entries [ (0, 1, i_ 1.0 5.0) ] in
  let d = Delta.create ~with_chains:true net in
  let d =
    Delta.apply d ~additions:[ (1, 7, i_ 2.0 4.0); (7, 0, i_ 3.0 4.0) ]
  in
  Alcotest.(check int) "3-cycle found (3 rotations)" 3 (Tables.n_rows d.Delta.tables.Catalog.l3);
  check_state_matches_full "new vertices" d

let test_self_loop_rejected () =
  let net = Compact.of_entries [ (0, 1, i_ 1.0 5.0) ] in
  let d = Delta.create net in
  Alcotest.check_raises "self loop" (Invalid_argument "Delta.apply: self-loop addition")
    (fun () -> ignore (Delta.apply d ~additions:[ (2, 2, i_ 1.0 1.0) ]))

let test_input_state_unchanged () =
  let net = Compact.of_entries [ (0, 1, i_ 1.0 5.0); (1, 0, i_ 2.0 3.0) ] in
  let d0 = Delta.create net in
  let rows_before = Tables.n_rows d0.Delta.tables.Catalog.l2 in
  let _ = Delta.apply d0 ~additions:[ (0, 2, i_ 1.0 1.0); (2, 0, i_ 2.0 1.0) ] in
  Alcotest.(check int) "persistent" rows_before (Tables.n_rows d0.Delta.tables.Catalog.l2)

let test_isolated_vertices_kept () =
  (* A vertex without interactions must survive [apply]: dropping it
     would shift every larger id. *)
  let old_entries = [ (0, 1, i_ 1.0 5.0); (1, 0, i_ 2.0 3.0) ] in
  let g = Graph.add_vertex (Graph.of_edges [ (0, 1, [ (1.0, 5.0) ]); (1, 0, [ (2.0, 3.0) ]) ]) 7 in
  let d = Delta.create ~with_chains:true (Compact.of_graph g) in
  let additions = [ (1, 2, i_ 3.0 1.0); (2, 0, i_ 4.0 1.0) ] in
  let d = Delta.apply d ~additions in
  Alcotest.(check bool) "grown net = of_entries with the old labels" true
    (Compact.equal d.Delta.net
       (Compact.of_entries ~vertices:[ 0; 1; 7 ] (old_entries @ additions)));
  Alcotest.(check (option int)) "isolated label keeps the top id" (Some 3)
    (Compact.vertex_of_label d.Delta.net 7);
  check_state_matches_full "isolated vertex" d

let test_self_loop_in_base () =
  (* The substrate tolerates a self-loop: the chain (1, 1, 2) runs over
     it and must be refreshed when 1 -> 2 grows. *)
  let net = Compact.of_entries [ (1, 1, i_ 1.0 4.0); (1, 2, i_ 2.0 3.0); (2, 3, i_ 3.0 2.0) ] in
  let d = Delta.create ~with_chains:true net in
  let d = Delta.apply d ~additions:[ (1, 2, i_ 3.0 2.0) ] in
  check_state_matches_full "self-loop base" d

(* Rows of [d]'s tables that use one of the directed label pairs in
   [pairs], counted from the tables alone. *)
let rows_through d pairs =
  let net = d.Delta.net in
  let uses t hops =
    let w = Tables.width t in
    let count = ref 0 in
    for r = 0 to Tables.n_rows t - 1 do
      let l i = Compact.label net (Tables.vert t r (i mod w)) in
      if List.exists (fun i -> List.mem (l i, l (i + 1)) pairs) (List.init hops Fun.id) then
        incr count
    done;
    !count
  in
  let { Catalog.l2; l3; c2 } = d.Delta.tables in
  uses l2 2 + uses l3 3 + Option.fold ~none:0 ~some:(fun c2 -> uses c2 2) c2

(* An independent copy of a state, to check that [apply] leaves its
   input alone. *)
let copy (d : Delta.t) =
  let c = Compact.columns d.Delta.net in
  let net =
    Compact.of_columns
      {
        Compact.c_labels = Array.copy c.Compact.c_labels;
        c_src = Array.copy c.Compact.c_src;
        c_dst = Array.copy c.Compact.c_dst;
        c_time = Float.Array.copy c.Compact.c_time;
        c_qty = Float.Array.copy c.Compact.c_qty;
      }
  in
  let { Catalog.l2; l3; c2 } = d.Delta.tables in
  (Result.get_ok net, List.map Check.table_rows (l2 :: l3 :: Option.to_list c2))

let prop_delta_equals_full rng =
  (* Base labels 1, 4, 7, ...: a new label can fall below or between
     them, shifting old ids.  Small integer times tie with existing
     interactions; batches are unsorted, may repeat a pair, and some
     add one edge between two new labels, which creates no row. *)
  let n = 6 in
  let label i = (3 * i) + 1 in
  let inter () =
    Interaction.make ~time:(float_of_int (Prng.int rng 12)) ~qty:(float_of_int (1 + Prng.int rng 9))
  in
  let entries =
    ref
      (List.init
         (4 + Prng.int rng 14)
         (fun _ ->
           let i = Prng.int rng n in
           (label i, label ((i + 1 + Prng.int rng (n - 1)) mod n), inter ())))
  in
  let any_label () = if Prng.int rng 3 = 0 then Prng.int rng (3 * n) else label (Prng.int rng n) in
  let net = Compact.of_entries ~vertices:[ label n ] !entries in
  let d = ref (Delta.create ~with_chains:true net) in
  for round = 1 to 4 do
    let no_row = Prng.int rng 4 = 0 in
    let additions =
      if no_row then [ (100 + (2 * round), 101 + (2 * round), inter ()) ]
      else
        List.concat
          (List.init
             (1 + Prng.int rng 4)
             (fun _ ->
               let s = any_label () and t = any_label () in
               let t = if t = s then s + 1 else t in
               List.init (1 + Prng.int rng 2) (fun _ -> (s, t, inter ()))))
    in
    let before = copy !d in
    let labels = List.init (Compact.n_vertices !d.Delta.net) (Compact.label !d.Delta.net) in
    let next = Delta.apply !d ~additions in
    let net, rows = copy !d in
    Alcotest.(check bool) "input net unchanged" true (Compact.equal net (fst before));
    Alcotest.(check (list (list (pair (list int) Check.exact)))) "input tables unchanged"
      (snd before) rows;
    entries := !entries @ additions;
    Alcotest.(check bool) "grown net = of_entries" true
      (Compact.equal next.Delta.net (Compact.of_entries ~vertices:labels !entries));
    check_state_matches_full "after apply" next;
    let full = Catalog.precompute ~with_chains:true next.Delta.net in
    List.iter
      (fun p ->
        let a = Catalog.pb next.Delta.net next.Delta.tables p
        and b = Catalog.pb next.Delta.net full p in
        Alcotest.(check (pair int Check.exact))
          ("pb " ^ Catalog.pattern_name p)
          (b.Catalog.instances, b.Catalog.total_flow)
          (a.Catalog.instances, a.Catalog.total_flow))
      Catalog.all;
    let recomputed = next.Delta.rows_recomputed - !d.Delta.rows_recomputed in
    Alcotest.(check int) "rows_recomputed = rows through touched pairs"
      (rows_through next (List.map (fun (s, t, _) -> (s, t)) additions))
      recomputed;
    if no_row then Alcotest.(check int) "no row created" 0 recomputed;
    d := next
  done;
  true

let () =
  Alcotest.run "delta"
    [
      ( "delta",
        [
          Alcotest.test_case "new cycle appears" `Quick test_new_cycle_appears;
          Alcotest.test_case "existing row refreshed" `Quick test_existing_row_refreshed;
          Alcotest.test_case "untouched rows survive" `Quick test_untouched_rows_survive;
          Alcotest.test_case "new vertices" `Quick test_new_vertices;
          Alcotest.test_case "self-loop rejected" `Quick test_self_loop_rejected;
          Alcotest.test_case "input state unchanged" `Quick test_input_state_unchanged;
          Alcotest.test_case "isolated vertices kept" `Quick test_isolated_vertices_kept;
          Alcotest.test_case "self-loop in the base" `Quick test_self_loop_in_base;
          Check.seeded_property ~count:100 "delta = full rebuild" prop_delta_equals_full;
        ] );
    ]
