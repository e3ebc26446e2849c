(* The sparse bounded-variable revised simplex: raw-solver unit tests
   (including the eta-file/refactorization machinery via a tiny
   [refactor_every]), random agreement with the vertex-enumeration
   reference ([Lp_ref]), and Problem-level solves, checked on flow LPs
   against Dinic on the time-expanded network. *)

open Tin_testlib
module Sparse = Tin_lp.Sparse
module Problem = Tin_lp.Problem
module Lp_flow = Tin_core.Lp_flow
module TE = Tin_maxflow.Time_expand
module Prng = Tin_util.Prng
module Fcmp = Tin_util.Fcmp

let check_opt ~expected_obj ?(expected = []) outcome =
  match outcome with
  | Sparse.Optimal { objective; solution } ->
      Alcotest.(check (float 1e-6)) "objective" expected_obj objective;
      List.iter
        (fun (i, v) -> Alcotest.(check (float 1e-6)) (Printf.sprintf "x%d" i) v solution.(i))
        expected
  | Sparse.Unbounded -> Alcotest.fail "unexpected: unbounded"
  | Sparse.Iteration_limit -> Alcotest.fail "unexpected: iteration limit"

let inf = infinity

(* Classic textbook instance: max 3x + 5y s.t. x<=4, 2y<=12, 3x+2y<=18. *)
let test_textbook () =
  check_opt ~expected_obj:36.0
    ~expected:[ (0, 2.0); (1, 6.0) ]
    (Sparse.solve ~c:[| 3.0; 5.0 |] ~upper:[| inf; inf |]
       ~rhs:[| 4.0; 12.0; 18.0 |]
       ~cols:[| [ (0, 1.0); (2, 3.0) ]; [ (1, 2.0); (2, 2.0) ] |] ~next:[| -1; -1; -1 |]
       ())

(* No constraint rows at all: the optimum is reached purely by bound
   flips (nonbasic variables moving to their upper bounds). *)
let test_pure_bound_flips () =
  check_opt ~expected_obj:11.0
    ~expected:[ (0, 3.0); (1, 4.0) ]
    (Sparse.solve ~c:[| 1.0; 2.0 |] ~upper:[| 3.0; 4.0 |] ~rhs:[||] ~cols:[| []; [] |] ~next:[||]
       ())

(* The row constraint is slack at the optimum; the variable's own upper
   bound is what binds. *)
let test_upper_bound_tight () =
  check_opt ~expected_obj:2.0
    ~expected:[ (0, 2.0) ]
    (Sparse.solve ~c:[| 1.0 |] ~upper:[| 2.0 |] ~rhs:[| 10.0 |] ~cols:[| [ (0, 1.0) ] |]
       ~next:[| -1 |] ())

(* Degenerate vertex at the origin with a redundant third row; Bland's
   fallback protects against cycling.  Optimum x = y = 1/2. *)
let test_degenerate () =
  check_opt ~expected_obj:0.5
    (Sparse.solve ~c:[| 1.0; 0.0 |] ~upper:[| inf; inf |]
       ~rhs:[| 1.0; 0.0; 1.0 |]
       ~cols:[| [ (0, 1.0); (1, 1.0); (2, 1.0) ]; [ (0, 1.0); (1, -1.0) ] |] ~next:[| -1; -1; -1 |]
       ())

(* Identical rows repeated three times: the basis stays nonsingular
   because slacks of the redundant copies remain basic. *)
let test_redundant_rows () =
  check_opt ~expected_obj:5.0
    (Sparse.solve ~c:[| 1.0; 1.0 |] ~upper:[| inf; inf |]
       ~rhs:[| 5.0; 5.0; 5.0 |]
       ~cols:
         [| [ (0, 1.0); (1, 1.0); (2, 1.0) ]; [ (0, 1.0); (1, 1.0); (2, 1.0) ] |]
       ~next:[| -1; -1; -1 |]
       ())

(* Duplicate (row, coef) entries in a column must be summed: the column
   below is effectively 2x <= 6. *)
let test_duplicate_entries_summed () =
  check_opt ~expected_obj:3.0
    ~expected:[ (0, 3.0) ]
    (Sparse.solve ~c:[| 1.0 |] ~upper:[| inf |] ~rhs:[| 6.0 |]
       ~cols:[| [ (0, 1.0); (0, 1.0) ] |] ~next:[| -1 |]
       ())

let test_unbounded () =
  match
    Sparse.solve ~c:[| 1.0 |] ~upper:[| inf |] ~rhs:[| 1.0 |] ~cols:[| [ (0, -1.0) ] |]
      ~next:[| -1 |] ()
  with
  | Sparse.Unbounded -> ()
  | _ -> Alcotest.fail "expected unbounded"

let test_negative_rhs_rejected () =
  Alcotest.check_raises "negative rhs"
    (Invalid_argument "Sparse.solve: negative or NaN rhs (origin must be feasible)") (fun () ->
      ignore
        (Sparse.solve ~c:[| 1.0 |] ~upper:[| inf |] ~rhs:[| -1.0 |] ~cols:[| [] |] ~next:[| -1 |]
           ()))

(* Out of shape: an upper bound or rhs below zero, or NaN; a NaN
   coefficient in the objective or a column. *)
let test_shape_rejected () =
  Alcotest.check_raises "NaN column coefficient" (Invalid_argument "Sparse.solve: NaN coefficient")
    (fun () ->
      ignore
        (Sparse.solve ~c:[| 1.0 |] ~upper:[| 5.0 |] ~rhs:[| 3.0 |] ~cols:[| [ (0, nan) ] |]
           ~next:[| -1 |] ()));
  Alcotest.check_raises "NaN objective" (Invalid_argument "Sparse.solve: NaN objective")
    (fun () ->
      ignore
        (Sparse.solve ~c:[| nan; 1.0 |] ~upper:[| 5.0; 5.0 |] ~rhs:[| 2.0 |]
           ~cols:[| [ (0, 1.0) ]; [ (0, 1.0) ] |] ~next:[| -1 |] ()));
  List.iter
    (fun bad ->
      Alcotest.check_raises (Printf.sprintf "upper %g" bad)
        (Invalid_argument "Sparse.solve: bad upper bound") (fun () ->
          ignore
            (Sparse.solve ~c:[| 1.0 |] ~upper:[| bad |] ~rhs:[||] ~cols:[| [] |] ~next:[||] ()));
      Alcotest.check_raises (Printf.sprintf "rhs %g" bad)
        (Invalid_argument "Sparse.solve: negative or NaN rhs (origin must be feasible)")
        (fun () ->
          ignore
            (Sparse.solve ~c:[| 1.0 |] ~upper:[| 1.0 |] ~rhs:[| bad |] ~cols:[| [] |]
               ~next:[| -1 |] ())))
    [ -1.0; neg_infinity; nan ]

let test_bad_row_index_rejected () =
  try
    ignore
      (Sparse.solve ~c:[| 1.0 |] ~upper:[| inf |] ~rhs:[| 1.0 |] ~cols:[| [ (3, 1.0) ] |]
         ~next:[| -1 |] ());
    Alcotest.fail "expected Invalid_argument"
  with Invalid_argument _ -> ()

(* A three-row chain, stored as increments: x0 <= 2, x0 + x1 <= 2 + 3,
   x0 + x1 + x2 <= 2 + 3 + 1, with x1 <= 1.  Maximizing 3x0 + 2x1 + x2
   fills x0 and x1 and leaves row 2's bound to x2: x = (2, 1, 3),
   objective 11, row 1 slack by 2 (carried into row 2).  With
   [refactor_every = 1] every pivot reinverts over the chained slacks. *)
let test_three_row_chain () =
  List.iter
    (fun refactor_every ->
      check_opt ~expected_obj:11.0
        ~expected:[ (0, 2.0); (1, 1.0); (2, 3.0) ]
        (Sparse.solve ~refactor_every ~c:[| 3.0; 2.0; 1.0 |] ~upper:[| 4.0; 1.0; inf |]
           ~rhs:[| 2.0; 3.0; 1.0 |]
           ~cols:[| [ (0, 1.0) ]; [ (1, 1.0) ]; [ (2, 1.0) ] |]
           ~next:[| 1; 2; -1 |] ()))
    [ 1; 64 ]

(* [next] must link each row forward to one row at most once. *)
let test_bad_next_rejected () =
  let solve next =
    ignore
      (Sparse.solve ~c:[| 1.0 |] ~upper:[| 1.0 |] ~rhs:[| 1.0; 1.0; 1.0 |]
         ~cols:[| [ (0, 1.0) ] |] ~next ())
  in
  List.iter
    (fun (what, next) ->
      Alcotest.check_raises what (Invalid_argument "Sparse.solve: bad next link") (fun () ->
          solve next))
    [
      ("backward link", [| -1; 0; -1 |]);
      ("self link", [| -1; 1; -1 |]);
      ("out of range", [| 3; -1; -1 |]);
      ("below -1", [| -2; -1; -1 |]);
      ("row continued twice", [| 2; 2; -1 |]);
    ];
  Alcotest.check_raises "arity" (Invalid_argument "Sparse.solve: chain arity mismatch") (fun () ->
      solve [| -1; -1 |]);
  solve [| 1; 2; -1 |];
  solve [| 2; -1; -1 |]

(* ------------------------------------------------------------------ *)
(* Random agreement with vertex enumeration.  [refactor_every] is
   deliberately tiny so reinversion happens every couple of pivots —
   the eta file and the refactorization must agree. *)
(* ------------------------------------------------------------------ *)

let random_instance rng =
  let n = 1 + Prng.int rng 6 and m = Prng.int rng 6 in
  let c = Array.init n (fun _ -> float_of_int (Prng.int rng 11 - 5)) in
  let upper =
    Array.init n (fun _ -> if Prng.int rng 4 = 0 then inf else float_of_int (Prng.int rng 10))
  in
  let dense_rows =
    List.init m (fun _ ->
        ( Array.init n (fun _ -> float_of_int (Prng.int rng 7 - 3)),
          float_of_int (Prng.int rng 12) ))
  in
  let rhs = Array.of_list (List.map snd dense_rows) in
  let cols =
    Array.init n (fun j ->
        List.mapi (fun i (coefs, _) -> (i, coefs.(j))) dense_rows
        |> List.filter (fun (_, v) -> v <> 0.0))
  in
  (c, upper, dense_rows, rhs, cols)

let test_random_vs_reference () =
  let rng = Prng.create ~seed:2024 in
  for k = 1 to 300 do
    let c, upper, dense_rows, rhs, cols = random_instance rng in
    let reference = Lp_ref.solve ~c ~upper ~rows:dense_rows () in
    let next = Array.make (Array.length rhs) (-1) in
    let got = Sparse.solve ~refactor_every:2 ~c ~upper ~rhs ~cols ~next () in
    match (reference, got) with
    | `Optimal a, Sparse.Optimal { objective = b; _ } ->
        if not (Fcmp.approx_eq ~eps:1e-6 a b) then
          Alcotest.failf "instance %d: vertex enumeration=%.9g sparse=%.9g" k a b
    | `Unbounded, Sparse.Unbounded -> ()
    | _ -> Alcotest.failf "instance %d: outcome mismatch" k
  done

(* The same agreement with rows in random chains, stored as
   increments: the reference sees each chain's running sums. *)
let test_random_chains_vs_reference () =
  let rng = Prng.create ~seed:2025 in
  for k = 1 to 300 do
    let c, upper, dense_rows, rhs, cols = random_instance rng in
    let m = Array.length rhs in
    (* Link each row to a later row not yet continued, or to none. *)
    let next = Array.make m (-1) and continued = Array.make m false in
    for i = 0 to m - 2 do
      let j = i + 1 + Prng.int rng (m - i - 1) in
      if Prng.bool rng && not continued.(j) then begin
        next.(i) <- j;
        continued.(j) <- true
      end
    done;
    (* Row j of the reference sums row j and every row it continues. *)
    let n = Array.length c in
    let sums = Array.of_list (List.map (fun (a, b) -> (Array.copy a, b)) dense_rows) in
    for i = 0 to m - 1 do
      if next.(i) >= 0 then begin
        let a, b = sums.(i) and a', b' = sums.(next.(i)) in
        sums.(next.(i)) <- (Array.init n (fun j -> a.(j) +. a'.(j)), b +. b')
      end
    done;
    let reference = Lp_ref.solve ~c ~upper ~rows:(Array.to_list sums) () in
    let got = Sparse.solve ~refactor_every:2 ~c ~upper ~rhs ~cols ~next () in
    match (reference, got) with
    | `Optimal a, Sparse.Optimal { objective = b; _ } ->
        if not (Fcmp.approx_eq ~eps:1e-6 a b) then
          Alcotest.failf "instance %d: vertex enumeration=%.9g sparse=%.9g" k a b
    | `Unbounded, Sparse.Unbounded -> ()
    | _ -> Alcotest.failf "instance %d: outcome mismatch" k
  done

(* ------------------------------------------------------------------ *)
(* Problem-level routing                                               *)
(* ------------------------------------------------------------------ *)

let test_problem_sparse_route () =
  let p = Problem.create () in
  let x = Problem.add_var ~ub:4.0 ~obj:3.0 p in
  let y = Problem.add_var ~obj:5.0 p in
  Problem.add_le p [ (2.0, y) ] 12.0;
  Problem.add_le p [ (3.0, x); (2.0, y) ] 18.0;
  let s = Problem.solve p in
  Alcotest.(check (float 1e-6)) "objective" 36.0 s.Problem.objective;
  Alcotest.(check (float 1e-6)) "x" 2.0 (s.Problem.value x);
  Alcotest.(check (float 1e-6)) "y" 6.0 (s.Problem.value y)

(* The builder enforces the solver's shape when a variable or row is
   added, so [Sparse] never meets a problem it cannot take.  The
   boundary values a flow LP produces are in shape: a zero-quantity
   interaction (ub = 0) and a buffer row of a vertex that has received
   nothing yet (rhs = 0).  Anything below zero is refused before the
   solve. *)
let test_problem_sparse_shape () =
  let p = Problem.create () in
  let x = Problem.add_var ~ub:0.0 ~obj:1.0 p in
  let y = Problem.add_var ~ub:5.0 ~obj:1.0 p in
  Problem.add_le p [ (1.0, y); (-1.0, x) ] 0.0;
  (try
     ignore (Problem.add_var ~ub:(-1e-300) p);
     Alcotest.fail "negative ub accepted"
   with Invalid_argument _ -> ());
  (try
     Problem.add_le p [ (1.0, y) ] (-1e-300);
     Alcotest.fail "negative rhs accepted"
   with Invalid_argument _ -> ());
  let s = Problem.solve p in
  Alcotest.(check bool) "optimal" true (s.Problem.status = `Optimal);
  Alcotest.(check (float 0.0)) "objective" 0.0 s.Problem.objective

(* The flow LP's value must equal Dinic's on the time-expanded
   network, the other formulation of the same maximum flow. *)
let check_lp_eq_dinic g ~source ~sink =
  match Lp_flow.solve g ~source ~sink with
  | Ok v -> Alcotest.(check (float 1e-6)) "sparse = Dinic" (TE.max_flow g ~source ~sink) v
  | Error _ -> Alcotest.fail "solver failure"

(* A chain flow LP of more than 4096 constraint cells: 10 vertices, 30
   distinct-time interactions per edge. *)
let test_chain_lp_eq_dinic () =
  let g = ref Graph.empty in
  for v = 0 to 8 do
    let is =
      List.init 30 (fun k ->
          Interaction.make
            ~time:(float_of_int ((30 * v) + k))
            ~qty:(float_of_int (1 + ((v + k) mod 7))))
    in
    g := Graph.add_edge !g ~src:v ~dst:(v + 1) is
  done;
  let g = !g and source = 0 and sink = 9 in
  let lp = Lp_flow.build g ~source ~sink in
  let cells = Problem.n_constraints lp.Lp_flow.problem * lp.Lp_flow.n_vars in
  Alcotest.(check bool) (Printf.sprintf "more than 4096 cells (%d)" cells) true (cells >= 4096);
  check_lp_eq_dinic g ~source ~sink

(* source -> relay -> sink with [k] interactions per edge, interleaved
   in time, so the relay's buffer row at its i-th send repeats all i
   earlier relay variables: k variables, k rows, k(k+1)/2 nonzeros. *)
let relay_graph k =
  let edge first qty =
    List.init k (fun i -> Interaction.make ~time:(float_of_int ((2 * i) + first)) ~qty:(qty i))
  in
  let g = Graph.add_edge Graph.empty ~src:0 ~dst:1 (edge 0 (fun i -> float_of_int (1 + (i mod 5)))) in
  Graph.add_edge g ~src:1 ~dst:2 (edge 1 (fun _ -> 3.0))

(* A dense flow LP: 64 x 64 cells, density 65/128. *)
let test_relay_lp_eq_dinic () =
  let g = relay_graph 64 and source = 0 and sink = 2 in
  let lp = Lp_flow.build g ~source ~sink in
  Alcotest.(check (pair int int)) "k vars, k rows" (64, 64) (lp.Lp_flow.n_vars, lp.Lp_flow.n_rows);
  check_lp_eq_dinic g ~source ~sink

let () =
  Alcotest.run "sparse"
    [
      ( "raw",
        [
          Alcotest.test_case "textbook" `Quick test_textbook;
          Alcotest.test_case "pure bound flips" `Quick test_pure_bound_flips;
          Alcotest.test_case "upper bound tight" `Quick test_upper_bound_tight;
          Alcotest.test_case "degenerate pivots" `Quick test_degenerate;
          Alcotest.test_case "redundant rows" `Quick test_redundant_rows;
          Alcotest.test_case "duplicate entries summed" `Quick test_duplicate_entries_summed;
          Alcotest.test_case "unbounded" `Quick test_unbounded;
          Alcotest.test_case "negative rhs rejected" `Quick test_negative_rhs_rejected;
          Alcotest.test_case "shape rejection" `Quick test_shape_rejected;
          Alcotest.test_case "bad row index rejected" `Quick test_bad_row_index_rejected;
          Alcotest.test_case "three-row chain" `Quick test_three_row_chain;
          Alcotest.test_case "bad next rejected" `Quick test_bad_next_rejected;
        ] );
      ( "agreement",
        [
          Alcotest.test_case "random vs vertex enumeration" `Quick test_random_vs_reference;
          Alcotest.test_case "random chains vs vertex enumeration" `Quick
            test_random_chains_vs_reference;
        ] );
      ( "problem",
        [
          Alcotest.test_case "`Sparse route" `Quick test_problem_sparse_route;
          Alcotest.test_case "shape rejection" `Quick test_problem_sparse_shape;
          Alcotest.test_case "Sparse = Dinic (10-vertex chain)" `Quick test_chain_lp_eq_dinic;
          Alcotest.test_case "Sparse = Dinic (dense relay)" `Quick test_relay_lp_eq_dinic;
        ] );
    ]
