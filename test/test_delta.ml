(* Delta maintenance of the path tables (the paper's footnote 2):
   applying additions incrementally must give exactly the tables a
   full precomputation over the grown network would. *)

open Tin_testlib
module Tables = Tin_patterns.Tables
module Catalog = Tin_patterns.Catalog
module Delta = Tin_patterns.Delta
module Prng = Tin_util.Prng

let i_ t q = Interaction.make ~time:t ~qty:q

(* Normalize a table into label space for comparison. *)
let normalized net table =
  List.init (Tables.n_rows table) (fun r ->
      ( List.init (Tables.width table) (fun i -> Compact.label net (Tables.vert table r i)),
        Tables.flow table r ))
  |> List.sort compare

(* Both sides come from the same chain reduction, so flows must match
   bit for bit. *)
let check_equal_tables msg net_a ta net_b tb =
  Alcotest.(check (list (pair (list int) Check.exact))) msg (normalized net_b tb)
    (normalized net_a ta)

let check_state_matches_full msg (d : Delta.t) =
  (* Rebuild from scratch over the same grown network. *)
  let full = Catalog.precompute ~with_chains:(d.Delta.tables.Catalog.c2 <> None) d.Delta.net in
  check_equal_tables (msg ^ ": L2") d.Delta.net d.Delta.tables.Catalog.l2 d.Delta.net full.Catalog.l2;
  check_equal_tables (msg ^ ": L3") d.Delta.net d.Delta.tables.Catalog.l3 d.Delta.net full.Catalog.l3;
  match (d.Delta.tables.Catalog.c2, full.Catalog.c2) with
  | Some a, Some b -> check_equal_tables (msg ^ ": chains") d.Delta.net a d.Delta.net b
  | None, None -> ()
  | _ -> Alcotest.fail "chain-table presence mismatch"

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
  let _, flow =
    normalized d.Delta.net d.Delta.tables.Catalog.l2
    |> List.find (fun (verts, _) -> List.hd verts = 0)
  in
  Alcotest.(check (float 1e-9)) "updated flow" 5.0 flow;
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

let prop_delta_equals_full rng =
  (* Random base network, random addition batches: after each batch
     the incremental tables equal a full precomputation. *)
  let net = Gen.random_net ~n:8 ~edges:14 rng in
  let d = ref (Delta.create ~with_chains:true net) in
  let ok = ref true in
  for _ = 1 to 3 do
    let n_adds = 1 + Prng.int rng 4 in
    let additions =
      List.init n_adds (fun _ ->
          let s = Prng.int rng 10 in
          let t = Prng.int rng 10 in
          let t = if t = s then (t + 1) mod 10 else t in
          ( s,
            t,
            Interaction.make
              ~time:(float_of_int (Prng.int rng 20))
              ~qty:(float_of_int (1 + Prng.int rng 9)) ))
    in
    d := Delta.apply !d ~additions;
    let full = Catalog.precompute ~with_chains:true !d.Delta.net in
    let eq t1 t2 = normalized !d.Delta.net t1 = normalized !d.Delta.net t2 in
    ok :=
      !ok
      && eq !d.Delta.tables.Catalog.l2 full.Catalog.l2
      && eq !d.Delta.tables.Catalog.l3 full.Catalog.l3
      && eq (Option.get !d.Delta.tables.Catalog.c2) (Option.get full.Catalog.c2)
  done;
  !ok

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
          Check.seeded_property ~count:100 "delta = full rebuild" prop_delta_equals_full;
        ] );
    ]
