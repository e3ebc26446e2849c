(* LP substrate: the problem builder and its solver, the sparse
   bounded-variable revised simplex, checked against textbook
   instances and a vertex-enumeration reference ([Lp_ref]). *)

open Tin_testlib
module Problem = Tin_lp.Problem
module Sparse = Tin_lp.Sparse
module Solver_metrics = Tin_lp.Solver_metrics

(* [max c·x] subject to [coefs·x ≤ rhs] per row and [0 ≤ x]. *)
let solve_rows ~c rows =
  let p = Problem.create () in
  let vars = Array.map (fun obj -> Problem.add_var ~obj p) c in
  List.iter
    (fun (coefs, rhs) ->
      Problem.add_le p (Array.to_list (Array.mapi (fun j a -> (a, vars.(j))) coefs)) rhs)
    rows;
  (Problem.solve p, vars)

let status_name = function
  | `Optimal -> "optimal"
  | `Unbounded -> "unbounded"
  | `Iteration_limit -> "iteration limit"

let check_opt ~expected_obj ?(expected = []) ~c rows =
  let sol, vars = solve_rows ~c rows in
  if sol.Problem.status <> `Optimal then
    Alcotest.failf "unexpected %s" (status_name sol.Problem.status);
  Alcotest.(check (float 1e-6)) "objective" expected_obj sol.Problem.objective;
  List.iter
    (fun (i, v) ->
      Alcotest.(check (float 1e-6)) (Printf.sprintf "x%d" i) v (sol.Problem.value vars.(i)))
    expected

(* Classic textbook instance: max 3x + 5y s.t. x<=4, 2y<=12, 3x+2y<=18. *)
let test_simplex_textbook () =
  check_opt ~expected_obj:36.0
    ~expected:[ (0, 2.0); (1, 6.0) ]
    ~c:[| 3.0; 5.0 |]
    [ ([| 1.0; 0.0 |], 4.0); ([| 0.0; 2.0 |], 12.0); ([| 3.0; 2.0 |], 18.0) ]

let test_simplex_unbounded () =
  let sol, _ = solve_rows ~c:[| 1.0 |] [ ([| -1.0 |], 1.0) ] in
  Alcotest.(check string) "status" "unbounded" (status_name sol.Problem.status)

(* [-x ≤ -2] (x ≥ 2) puts the origin outside the feasible region,
   where the simplex cannot start: the builder refuses such a row, and
   a NaN rhs or coefficient, when it is added. *)
let test_negative_rhs_rejected () =
  let p = Problem.create () in
  let x = Problem.add_var ~obj:(-1.0) p in
  List.iter
    (fun rhs ->
      Alcotest.check_raises (Printf.sprintf "rhs %g" rhs)
        (Invalid_argument "Problem.add_le: negative or NaN rhs") (fun () ->
          Problem.add_le p [ (-1.0, x) ] rhs))
    [ -2.0; neg_infinity; nan ];
  Alcotest.check_raises "NaN coefficient" (Invalid_argument "Problem.add_le: NaN coefficient")
    (fun () -> Problem.add_le p [ (nan, x) ] 3.0);
  Alcotest.(check int) "no row added" 0 (Problem.n_constraints p);
  Problem.add_le p [ (-1.0, x) ] 0.0;
  Alcotest.(check int) "zero rhs accepted" 1 (Problem.n_constraints p)

let test_simplex_degenerate () =
  (* Degenerate vertex at origin with redundant constraints; Bland
     protects against cycling.  Optimum: x = y = 1/2. *)
  check_opt ~expected_obj:0.5 ~c:[| 1.0; 0.0 |]
    [ ([| 1.0; 1.0 |], 1.0); ([| 1.0; -1.0 |], 0.0); ([| 1.0; 0.0 |], 1.0) ]

let test_simplex_zero_objective () = check_opt ~expected_obj:0.0 ~c:[| 0.0 |] [ ([| 1.0 |], 3.0) ]

let test_simplex_arity_mismatch () =
  Alcotest.check_raises "sparse column arity"
    (Invalid_argument "Sparse.solve: column arity mismatch") (fun () ->
      ignore (Sparse.solve ~c:[| 1.0 |] ~upper:[| 1.0 |] ~rhs:[||] ~cols:[||] ~next:[||] ()));
  Alcotest.check_raises "sparse bounds arity"
    (Invalid_argument "Sparse.solve: bounds arity mismatch") (fun () ->
      ignore (Sparse.solve ~c:[| 1.0 |] ~upper:[||] ~rhs:[||] ~cols:[| [] |] ~next:[||] ()))

(* Random 2-variable problems against the vertex-enumeration
   reference.  All-positive coefficients with a positive rhs: bounded
   and feasible. *)
let test_simplex_vs_brute_force () =
  let rng = Tin_util.Prng.create ~seed:1234 in
  for _ = 1 to 200 do
    let c = [| float_of_int (Tin_util.Prng.int rng 10); float_of_int (Tin_util.Prng.int rng 10) |] in
    let n_rows = 1 + Tin_util.Prng.int rng 4 in
    let rows =
      List.init n_rows (fun _ ->
          ( [|
              float_of_int (1 + Tin_util.Prng.int rng 5);
              float_of_int (1 + Tin_util.Prng.int rng 5);
            |],
            float_of_int (1 + Tin_util.Prng.int rng 20) ))
    in
    match Lp_ref.solve ~c ~upper:[| infinity; infinity |] ~rows () with
    | `Unbounded -> Alcotest.fail "reference found a bounded instance unbounded"
    | `Optimal best ->
        let sol, _ = solve_rows ~c rows in
        if sol.Problem.status <> `Optimal then
          Alcotest.failf "unexpected %s" (status_name sol.Problem.status);
        Alcotest.(check (float 1e-5)) "agrees with vertex enumeration" best sol.Problem.objective
  done

let test_problem_basic () =
  let p = Problem.create () in
  let x = Problem.add_var ~ub:4.0 ~obj:3.0 p in
  let y = Problem.add_var ~obj:5.0 p in
  Problem.add_le p [ (2.0, y) ] 12.0;
  Problem.add_le p [ (3.0, x); (2.0, y) ] 18.0;
  let sol = Problem.solve p in
  Alcotest.(check bool) "optimal" true (sol.Problem.status = `Optimal);
  Alcotest.(check (float 1e-6)) "objective" 36.0 sol.Problem.objective;
  Alcotest.(check (float 1e-6)) "x" 2.0 (sol.Problem.value x);
  Alcotest.(check (float 1e-6)) "y" 6.0 (sol.Problem.value y)

let test_problem_unbounded () =
  let p = Problem.create () in
  let _x = Problem.add_var ~obj:1.0 p in
  let sol = Problem.solve p in
  Alcotest.(check bool) "unbounded" true (sol.Problem.status = `Unbounded)

let test_problem_frozen () =
  let p = Problem.create () in
  let _x = Problem.add_var p in
  let _ = Problem.solve p in
  Alcotest.check_raises "frozen" (Invalid_argument "Problem.add_var: problem already solved")
    (fun () -> ignore (Problem.add_var p))

let test_problem_bad_bounds () =
  let p = Problem.create () in
  List.iter
    (fun ub ->
      Alcotest.check_raises (Printf.sprintf "ub %g" ub)
        (Invalid_argument "Problem.add_var: negative or NaN ub") (fun () ->
          ignore (Problem.add_var ~ub p)))
    [ -1.0; neg_infinity; nan ];
  Alcotest.check_raises "NaN obj" (Invalid_argument "Problem.add_var: NaN obj") (fun () ->
      ignore (Problem.add_var ~obj:nan p));
  Alcotest.(check int) "no variable added" 0 (Problem.n_vars p);
  ignore (Problem.add_var ~ub:0.0 p);
  Alcotest.(check int) "zero ub accepted" 1 (Problem.n_vars p)

(* Random box-bounded problems of up to five variables against the
   vertex-enumeration reference, and the solution must be feasible for
   the recorded rows and bounds. *)
let test_box_bounded_vs_reference () =
  let rng = Tin_util.Prng.create ~seed:4242 in
  for _ = 1 to 200 do
    let n = 1 + Tin_util.Prng.int rng 5 in
    let vars_spec =
      List.init n (fun _ ->
          ( float_of_int (1 + Tin_util.Prng.int rng 9),
            float_of_int (Tin_util.Prng.int rng 10) ))
    in
    let n_rows = Tin_util.Prng.int rng 4 in
    let rows_spec =
      List.init n_rows (fun _ ->
          ( List.init n (fun _ -> float_of_int (Tin_util.Prng.int rng 4)),
            float_of_int (5 + Tin_util.Prng.int rng 30) ))
    in
    let p = Problem.create () in
    let vars = List.map (fun (ub, obj) -> Problem.add_var ~ub ~obj p) vars_spec in
    List.iter (fun (coefs, rhs) -> Problem.add_le p (List.combine coefs vars) rhs) rows_spec;
    let sol = Problem.solve p in
    let reference =
      Lp_ref.solve
        ~c:(Array.of_list (List.map snd vars_spec))
        ~upper:(Array.of_list (List.map fst vars_spec))
        ~rows:(List.map (fun (coefs, rhs) -> (Array.of_list coefs, rhs)) rows_spec)
        ()
    in
    (match reference with
    | `Optimal best ->
        Alcotest.(check bool) "optimal" true (sol.Problem.status = `Optimal);
        Alcotest.(check (float 1e-5)) "objective = vertex enumeration" best sol.Problem.objective
    | `Unbounded -> Alcotest.fail "reference found a box-bounded instance unbounded");
    List.iter2
      (fun (ub, _) v ->
        let x = sol.Problem.value v in
        Alcotest.(check bool) "within bounds" true (x >= -1e-9 && x <= ub +. 1e-9))
      vars_spec vars;
    List.iter
      (fun (coefs, rhs) ->
        let lhs =
          List.fold_left2 (fun acc c v -> acc +. (c *. sol.Problem.value v)) 0.0 coefs vars
        in
        Alcotest.(check bool) "rows feasible" true (lhs <= rhs +. 1e-6))
      rows_spec
  done

(* Rows in chains: [add_cumulative] states the running sums of its
   increments.  On random small LPs whose rows come in chains it must
   reach the status and optimum of the same running sums added row by
   row with [add_le], and both must agree with vertex enumeration. *)
let test_cumulative_vs_materialised () =
  let rng = Tin_util.Prng.create ~seed:2424 in
  let int k = Tin_util.Prng.int rng k in
  for _ = 1 to 200 do
    let n = 1 + int 4 in
    let c = Array.init n (fun _ -> float_of_int (int 11 - 5)) in
    let upper = Array.init n (fun _ -> if int 4 = 0 then infinity else float_of_int (int 10)) in
    let chains =
      List.init (int 3) (fun _ ->
          List.init (1 + int 3) (fun _ ->
              (Array.init n (fun _ -> float_of_int (int 7 - 3)), float_of_int (int 6))))
    in
    let running_sums chain =
      let sum = Array.make n 0.0 and b = ref 0.0 in
      List.map
        (fun (coefs, rhs) ->
          Array.iteri (fun j a -> sum.(j) <- sum.(j) +. a) coefs;
          b := !b +. rhs;
          (Array.copy sum, !b))
        chain
    in
    let rows = List.concat_map running_sums chains in
    let solve add =
      let p = Problem.create () in
      let vars = Array.mapi (fun j obj -> Problem.add_var ~ub:upper.(j) ~obj p) c in
      let terms coefs =
        Array.to_list (Array.mapi (fun j a -> (a, vars.(j))) coefs)
        |> List.filter (fun (a, _) -> a <> 0.0)
      in
      add p terms;
      Problem.solve p
    in
    let chained =
      solve (fun p terms ->
          List.iter
            (fun chain ->
              Problem.add_cumulative p (List.map (fun (coefs, rhs) -> (terms coefs, rhs)) chain))
            chains)
    in
    let flat =
      solve (fun p terms -> List.iter (fun (coefs, rhs) -> Problem.add_le p (terms coefs) rhs) rows)
    in
    Alcotest.(check string)
      "status" (status_name flat.Problem.status) (status_name chained.Problem.status);
    match Lp_ref.solve ~c ~upper ~rows () with
    | `Optimal best ->
        Alcotest.(check string) "optimal" "optimal" (status_name chained.Problem.status);
        Alcotest.(check (float 1e-6))
          "add_cumulative = vertex enumeration" best chained.Problem.objective;
        Alcotest.(check (float 1e-6)) "add_le = vertex enumeration" best flat.Problem.objective
    | `Unbounded ->
        Alcotest.(check string) "unbounded" "unbounded" (status_name chained.Problem.status)
  done

(* A chain is validated as a whole: one bad increment adds no row. *)
let test_cumulative_rejected () =
  let p = Problem.create () in
  let x = Problem.add_var ~obj:1.0 p in
  Alcotest.check_raises "negative increment"
    (Invalid_argument "Problem.add_le: negative or NaN rhs") (fun () ->
      Problem.add_cumulative p [ ([ (1.0, x) ], 3.0); ([ (1.0, x) ], -1.0) ]);
  Alcotest.check_raises "NaN coefficient" (Invalid_argument "Problem.add_le: NaN coefficient")
    (fun () -> Problem.add_cumulative p [ ([ (1.0, x) ], 3.0); ([ (nan, x) ], 1.0) ]);
  let other = Problem.create () in
  ignore (Problem.add_var other);
  let stranger = Problem.add_var other in
  Alcotest.check_raises "unknown variable" (Invalid_argument "Problem.add_le: unknown variable")
    (fun () -> Problem.add_cumulative p [ ([ (1.0, x) ], 3.0); ([ (1.0, stranger) ], 3.0) ]);
  Alcotest.(check int) "no row added" 0 (Problem.n_constraints p);
  Problem.add_cumulative p [ ([ (1.0, x) ], 3.0); ([], 2.0) ];
  Alcotest.(check int) "two rows" 2 (Problem.n_constraints p);
  Alcotest.(check (float 1e-9)) "x <= 3 binds, not 3 + 2" 3.0 (Problem.solve p).Problem.objective

(* --- exact iteration budgets --------------------------------------- *)

(* The budget contract: a run that needs exactly [p] work passes
   (pivots / bound flips / defensive refactorize-retries, as counted by
   [Solver_metrics.iterations]) returns its result with [max_iters = p]
   and [Iteration_limit] with [max_iters = p - 1] — never one extra
   iteration. *)
let check_budget_exact solve_with =
  let base, iters = solve_with None in
  (match base with
  | `Opt _ -> ()
  | `Limit -> Alcotest.fail "unlimited run hit the iteration limit"
  | `Other -> Alcotest.fail "expected an optimal base run");
  (match (solve_with (Some iters), base) with
  | (`Opt a, _), `Opt b -> Alcotest.(check (float 1e-9)) "budget = work suffices" b a
  | _ -> Alcotest.failf "max_iters = %d (the exact work) must solve" iters);
  if iters > 0 then
    match solve_with (Some (iters - 1)) with
    | `Limit, _ -> ()
    | _ -> Alcotest.failf "max_iters = %d must hit Iteration_limit" (iters - 1)

let test_iteration_budget_exact () =
  let rng = Tin_util.Prng.create ~seed:9090 in
  for _ = 1 to 100 do
    let n = 1 + Tin_util.Prng.int rng 5 in
    let c = Array.init n (fun _ -> float_of_int (Tin_util.Prng.int rng 10)) in
    let upper = Array.init n (fun _ -> float_of_int (1 + Tin_util.Prng.int rng 9)) in
    let n_rows = 1 + Tin_util.Prng.int rng 4 in
    let rows =
      List.init n_rows (fun _ ->
          ( Array.init n (fun _ -> float_of_int (Tin_util.Prng.int rng 4)),
            float_of_int (5 + Tin_util.Prng.int rng 30) ))
    in
    let rhs = Array.of_list (List.map snd rows) in
    let cols =
      Array.init n (fun j ->
          List.concat
            (List.mapi (fun i (a, _) -> if a.(j) <> 0.0 then [ (i, a.(j)) ] else []) rows))
    in
    let next = Array.make n_rows (-1) in
    let sparse max_iters =
      let m = Solver_metrics.create () in
      let o =
        match max_iters with
        | None -> Sparse.solve ~metrics:m ~c ~upper ~rhs ~cols ~next ()
        | Some k -> Sparse.solve ~max_iters:k ~metrics:m ~c ~upper ~rhs ~cols ~next ()
      in
      ( (match o with
        | Sparse.Optimal { objective; _ } -> `Opt objective
        | Sparse.Iteration_limit -> `Limit
        | _ -> `Other),
        m.Solver_metrics.iterations )
    in
    check_budget_exact sparse
  done

let test_metrics_accumulate () =
  let m = Solver_metrics.create () in
  let solve () =
    ignore
      (Sparse.solve ~metrics:m ~c:[| 3.0; 5.0 |] ~upper:[| 4.0; infinity |]
         ~rhs:[| 12.0; 18.0 |]
         ~cols:[| [ (1, 3.0) ]; [ (0, 2.0); (1, 2.0) ] |]
         ~next:[| -1; -1 |] ())
  in
  solve ();
  let once = m.Solver_metrics.iterations in
  Alcotest.(check bool) "a real solve does work" true (once > 0);
  Alcotest.(check int) "iterations = pivots + flips" once
    (m.Solver_metrics.pivots + m.Solver_metrics.bound_flips);
  solve ();
  Alcotest.(check int) "metrics accumulate across solves" (2 * once) m.Solver_metrics.iterations

let test_problem_repeated_terms () =
  (* x + x <= 4 means x <= 2. *)
  let p = Problem.create () in
  let x = Problem.add_var ~obj:1.0 p in
  Problem.add_le p [ (1.0, x); (1.0, x) ] 4.0;
  let sol = Problem.solve p in
  Alcotest.(check (float 1e-6)) "objective" 2.0 sol.Problem.objective

let () =
  Alcotest.run "lp"
    [
      ( "simplex",
        [
          Alcotest.test_case "textbook" `Quick test_simplex_textbook;
          Alcotest.test_case "unbounded" `Quick test_simplex_unbounded;
          Alcotest.test_case "negative rhs" `Quick test_negative_rhs_rejected;
          Alcotest.test_case "degenerate" `Quick test_simplex_degenerate;
          Alcotest.test_case "zero objective" `Quick test_simplex_zero_objective;
          Alcotest.test_case "arity mismatch" `Quick test_simplex_arity_mismatch;
          Alcotest.test_case "random vs brute force" `Quick test_simplex_vs_brute_force;
          Alcotest.test_case "random box-bounded vs vertex enumeration" `Quick
            test_box_bounded_vs_reference;
        ] );
      ( "problem",
        [
          Alcotest.test_case "basic" `Quick test_problem_basic;
          Alcotest.test_case "unbounded" `Quick test_problem_unbounded;
          Alcotest.test_case "frozen after solve" `Quick test_problem_frozen;
          Alcotest.test_case "bad bounds" `Quick test_problem_bad_bounds;
          Alcotest.test_case "repeated terms" `Quick test_problem_repeated_terms;
          Alcotest.test_case "add_cumulative = running sums = vertex enumeration" `Quick
            test_cumulative_vs_materialised;
          Alcotest.test_case "add_cumulative rejection" `Quick test_cumulative_rejected;
        ] );
      ( "budget",
        [
          Alcotest.test_case "max_iters exact on all solvers" `Quick test_iteration_budget_exact;
          Alcotest.test_case "metrics accumulate" `Quick test_metrics_accumulate;
        ] );
    ]
