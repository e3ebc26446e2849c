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
