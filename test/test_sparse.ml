(* The sparse bounded-variable revised simplex: raw-solver unit tests
   (including the eta-file/refactorization machinery via a tiny
   [refactor_every]), random agreement with the dense bounded tableau,
   and the Problem-level [`Sparse] / [`Auto] routing. *)

module Sparse = Tin_lp.Sparse
module Bounded = Tin_lp.Bounded
module Problem = Tin_lp.Problem
module Lp_flow = Tin_core.Lp_flow
module Prng = Tin_util.Prng
module Fcmp = Tin_util.Fcmp
module Obs = Tin_obs.Obs

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
       ~cols:[| [ (0, 1.0); (2, 3.0) ]; [ (1, 2.0); (2, 2.0) ] |]
       ())

(* No constraint rows at all: the optimum is reached purely by bound
   flips (nonbasic variables moving to their upper bounds). *)
let test_pure_bound_flips () =
  check_opt ~expected_obj:11.0
    ~expected:[ (0, 3.0); (1, 4.0) ]
    (Sparse.solve ~c:[| 1.0; 2.0 |] ~upper:[| 3.0; 4.0 |] ~rhs:[||] ~cols:[| []; [] |] ())

(* The row constraint is slack at the optimum; the variable's own upper
   bound is what binds. *)
let test_upper_bound_tight () =
  check_opt ~expected_obj:2.0
    ~expected:[ (0, 2.0) ]
    (Sparse.solve ~c:[| 1.0 |] ~upper:[| 2.0 |] ~rhs:[| 10.0 |] ~cols:[| [ (0, 1.0) ] |] ())

(* Degenerate vertex at the origin with a redundant third row; Bland's
   fallback protects against cycling.  Optimum x = y = 1/2. *)
let test_degenerate () =
  check_opt ~expected_obj:0.5
    (Sparse.solve ~c:[| 1.0; 0.0 |] ~upper:[| inf; inf |]
       ~rhs:[| 1.0; 0.0; 1.0 |]
       ~cols:[| [ (0, 1.0); (1, 1.0); (2, 1.0) ]; [ (0, 1.0); (1, -1.0) ] |]
       ())

(* Identical rows repeated three times: the basis stays nonsingular
   because slacks of the redundant copies remain basic. *)
let test_redundant_rows () =
  check_opt ~expected_obj:5.0
    (Sparse.solve ~c:[| 1.0; 1.0 |] ~upper:[| inf; inf |]
       ~rhs:[| 5.0; 5.0; 5.0 |]
       ~cols:
         [| [ (0, 1.0); (1, 1.0); (2, 1.0) ]; [ (0, 1.0); (1, 1.0); (2, 1.0) ] |]
       ())

(* Duplicate (row, coef) entries in a column must be summed: the column
   below is effectively 2x <= 6. *)
let test_duplicate_entries_summed () =
  check_opt ~expected_obj:3.0
    ~expected:[ (0, 3.0) ]
    (Sparse.solve ~c:[| 1.0 |] ~upper:[| inf |] ~rhs:[| 6.0 |]
       ~cols:[| [ (0, 1.0); (0, 1.0) ] |]
       ())

let test_unbounded () =
  match
    Sparse.solve ~c:[| 1.0 |] ~upper:[| inf |] ~rhs:[| 1.0 |] ~cols:[| [ (0, -1.0) ] |] ()
  with
  | Sparse.Unbounded -> ()
  | _ -> Alcotest.fail "expected unbounded"

let test_negative_rhs_rejected () =
  Alcotest.check_raises "negative rhs"
    (Invalid_argument "Sparse.solve: negative rhs (origin must be feasible)") (fun () ->
      ignore (Sparse.solve ~c:[| 1.0 |] ~upper:[| inf |] ~rhs:[| -1.0 |] ~cols:[| [] |] ()))

let test_bad_row_index_rejected () =
  try
    ignore (Sparse.solve ~c:[| 1.0 |] ~upper:[| inf |] ~rhs:[| 1.0 |] ~cols:[| [ (3, 1.0) ] |] ());
    Alcotest.fail "expected Invalid_argument"
  with Invalid_argument _ -> ()

(* ------------------------------------------------------------------ *)
(* Random agreement with the dense bounded tableau.  [refactor_every]
   is deliberately tiny so reinversion happens every couple of pivots
   — the eta file and the refactorization must agree. *)
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

let test_random_vs_bounded () =
  let rng = Prng.create ~seed:2024 in
  for k = 1 to 300 do
    let c, upper, dense_rows, rhs, cols = random_instance rng in
    let reference = Bounded.solve ~c ~upper ~rows:dense_rows () in
    let got = Sparse.solve ~refactor_every:2 ~c ~upper ~rhs ~cols () in
    match (reference, got) with
    | Bounded.Optimal { objective = a; _ }, Sparse.Optimal { objective = b; _ } ->
        if not (Fcmp.approx_eq ~eps:1e-6 a b) then
          Alcotest.failf "instance %d: bounded=%.9g sparse=%.9g" k a b
    | Bounded.Unbounded, Sparse.Unbounded -> ()
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
  let s = Problem.solve ~solver:`Sparse p in
  Alcotest.(check (float 1e-6)) "objective" 36.0 s.Problem.objective;
  Alcotest.(check (float 1e-6)) "x" 2.0 (s.Problem.value x);
  Alcotest.(check (float 1e-6)) "y" 6.0 (s.Problem.value y)

(* The builder enforces the box solvers' shape when a variable or row
   is added, so a forced [`Sparse] never meets a problem it cannot
   take.  The boundary values a flow LP produces are in shape: a
   zero-quantity interaction (ub = 0) and a buffer row of a vertex that
   has received nothing yet (rhs = 0).  Anything below zero is refused
   before the solve. *)
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
  let s = Problem.solve ~solver:`Sparse p in
  Alcotest.(check bool) "optimal" true (s.Problem.status = `Optimal);
  Alcotest.(check (float 0.0)) "objective" 0.0 s.Problem.objective

(* The solver [`Auto] picked, read off the per-solver [lp_iters]
   counters: only the chosen backend's counter moves. *)
let auto_route g ~source ~sink =
  let iters solver =
    Obs.Counter.(value (labeled (make_labeled "lp_iters" ~labels:[ "solver" ]) [ solver ]))
  in
  Obs.reset ();
  Obs.enable ();
  let v = Fun.protect ~finally:Obs.disable (fun () -> Lp_flow.solve g ~source ~sink) in
  let route =
    match (iters "bounded", iters "sparse") with
    | b, 0 when b > 0 -> "bounded"
    | 0, s when s > 0 -> "sparse"
    | b, s -> Alcotest.failf "no single route: bounded=%d sparse=%d iterations" b s
  in
  Obs.reset ();
  match v with Ok v -> (v, route) | Error _ -> Alcotest.fail "solver failure"

let lp_value solver g ~source ~sink =
  match Lp_flow.solve ~solver g ~source ~sink with
  | Ok v -> v
  | Error _ -> Alcotest.fail "solver failure"

(* A chain flow LP large enough that [`Auto] routes to the sparse
   solver (rows × cols >= 4096): 10 vertices, 30 distinct-time
   interactions per edge.  The route is asserted, and the value
   checked against both forced solvers. *)
let test_auto_routes_large_flow_lp () =
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
  Alcotest.(check bool)
    (Printf.sprintf "instance large enough for the sparse route (%d cells)" cells)
    true (cells >= 4096);
  let v, route = auto_route g ~source ~sink in
  Alcotest.(check string) "route" "sparse" route;
  let bounded = lp_value `Bounded g ~source ~sink in
  Alcotest.(check (float 1e-6)) "auto = bounded" bounded v;
  Alcotest.(check (float 1e-6)) "sparse = bounded" bounded (lp_value `Sparse g ~source ~sink)

(* source -> relay -> sink with [k] interactions per edge, interleaved
   in time, so the relay's buffer row at its i-th send repeats all i
   earlier relay variables: k variables, k rows, k(k+1)/2 nonzeros. *)
let relay_graph k =
  let edge first qty =
    List.init k (fun i -> Interaction.make ~time:(float_of_int ((2 * i) + first)) ~qty:(qty i))
  in
  let g = Graph.add_edge Graph.empty ~src:0 ~dst:1 (edge 0 (fun i -> float_of_int (1 + (i mod 5)))) in
  Graph.add_edge g ~src:1 ~dst:2 (edge 1 (fun _ -> 3.0))

(* [`Auto] routes on size alone: a flow LP of 4096 cells goes to
   [`Sparse] although its density is about 0.5, and one under 4096
   cells goes to [`Bounded]. *)
let test_auto_routes_on_size () =
  let route_of k =
    let g = relay_graph k and source = 0 and sink = 2 in
    let lp = Lp_flow.build g ~source ~sink in
    Alcotest.(check (pair int int)) "k vars, k rows" (k, k) (lp.Lp_flow.n_vars, lp.Lp_flow.n_rows);
    let v, route = auto_route g ~source ~sink in
    List.iter
      (fun solver -> Alcotest.(check (float 1e-6)) "auto = forced" (lp_value solver g ~source ~sink) v)
      [ `Bounded; `Sparse ];
    route
  in
  Alcotest.(check string) "64 x 64 cells, density 65/128" "sparse" (route_of 64);
  Alcotest.(check string) "8 x 8 cells" "bounded" (route_of 8)

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
          Alcotest.test_case "bad row index rejected" `Quick test_bad_row_index_rejected;
        ] );
      ( "agreement",
        [ Alcotest.test_case "300 random instances vs bounded" `Quick test_random_vs_bounded ] );
      ( "problem",
        [
          Alcotest.test_case "`Sparse route" `Quick test_problem_sparse_route;
          Alcotest.test_case "shape rejection" `Quick test_problem_sparse_shape;
          Alcotest.test_case "`Auto routes large flow LP" `Quick test_auto_routes_large_flow_lp;
          Alcotest.test_case "`Auto routes on size alone" `Quick test_auto_routes_on_size;
        ] );
    ]
