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
