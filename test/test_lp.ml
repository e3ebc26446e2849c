(* LP substrate: the problem builder and its two box-bounded simplex
   solvers, the dense bounded tableau and the sparse revised simplex. *)

module Problem = Tin_lp.Problem
module Bounded = Tin_lp.Bounded
module Sparse = Tin_lp.Sparse
module Solver_metrics = Tin_lp.Solver_metrics

let solvers : (string * Problem.solver) list = [ ("bounded", `Bounded); ("sparse", `Sparse) ]

(* [max c·x] subject to [coefs·x ≤ rhs] per row and [0 ≤ x], built
   afresh for every forced solver (a solved builder is frozen). *)
let solve_each ~c rows check =
  List.iter
    (fun (name, solver) ->
      let p = Problem.create () in
      let vars = Array.map (fun obj -> Problem.add_var ~obj p) c in
      List.iter
        (fun (coefs, rhs) ->
          Problem.add_le p (Array.to_list (Array.mapi (fun j a -> (a, vars.(j))) coefs)) rhs)
        rows;
      check name (Problem.solve ~solver p) vars)
    solvers

let status_name = function
  | `Optimal -> "optimal"
  | `Unbounded -> "unbounded"
  | `Iteration_limit -> "iteration limit"

let check_opt ~expected_obj ?(expected = []) ~c rows =
  solve_each ~c rows (fun name sol vars ->
      if sol.Problem.status <> `Optimal then
        Alcotest.failf "%s: unexpected %s" name (status_name sol.Problem.status);
      Alcotest.(check (float 1e-6)) (name ^ ": objective") expected_obj sol.Problem.objective;
      List.iter
        (fun (i, v) ->
          Alcotest.(check (float 1e-6)) (Printf.sprintf "%s: x%d" name i) v
            (sol.Problem.value vars.(i)))
        expected)

(* Classic textbook instance: max 3x + 5y s.t. x<=4, 2y<=12, 3x+2y<=18. *)
let test_simplex_textbook () =
  check_opt ~expected_obj:36.0
    ~expected:[ (0, 2.0); (1, 6.0) ]
    ~c:[| 3.0; 5.0 |]
    [ ([| 1.0; 0.0 |], 4.0); ([| 0.0; 2.0 |], 12.0); ([| 3.0; 2.0 |], 18.0) ]

let test_simplex_unbounded () =
  solve_each ~c:[| 1.0 |] [ ([| -1.0 |], 1.0) ] (fun name sol _ ->
      Alcotest.(check string) name "unbounded" (status_name sol.Problem.status))

(* [-x ≤ -2] (x ≥ 2) puts the origin outside the feasible region,
   where neither box solver can start: the builder refuses such a row,
   and a NaN rhs, when it is added. *)
let test_negative_rhs_rejected () =
  let p = Problem.create () in
  let x = Problem.add_var ~obj:(-1.0) p in
  List.iter
    (fun rhs ->
      Alcotest.check_raises (Printf.sprintf "rhs %g" rhs)
        (Invalid_argument "Problem.add_le: negative or NaN rhs") (fun () ->
          Problem.add_le p [ (-1.0, x) ] rhs))
    [ -2.0; neg_infinity; nan ];
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
  Alcotest.check_raises "bounded row arity" (Invalid_argument "Bounded.solve: row arity mismatch")
    (fun () ->
      ignore (Bounded.solve ~c:[| 1.0 |] ~upper:[| 1.0 |] ~rows:[ ([| 1.0; 2.0 |], 1.0) ] ()));
  Alcotest.check_raises "bounded bounds arity"
    (Invalid_argument "Bounded.solve: bounds arity mismatch") (fun () ->
      ignore (Bounded.solve ~c:[| 1.0 |] ~upper:[||] ~rows:[] ()));
  Alcotest.check_raises "sparse column arity"
    (Invalid_argument "Sparse.solve: column arity mismatch") (fun () ->
      ignore (Sparse.solve ~c:[| 1.0 |] ~upper:[| 1.0 |] ~rhs:[||] ~cols:[||] ()));
  Alcotest.check_raises "sparse bounds arity"
    (Invalid_argument "Sparse.solve: bounds arity mismatch") (fun () ->
      ignore (Sparse.solve ~c:[| 1.0 |] ~upper:[||] ~rhs:[||] ~cols:[| [] |] ()))

(* Brute-force LP oracle over constraint-boundary intersections in 2D:
   enumerate all vertices of the feasible polygon (pairwise
   intersections of tight constraints, plus axes), keep feasible ones,
   take the best objective.  Compares against both solvers on random
   2-variable problems. *)
let brute_force_2d ~c ~rows =
  let lines =
    (* each row as a*x + b*y <= r ; plus x >= 0 and y >= 0 *)
    rows @ [ ([| -1.0; 0.0 |], 0.0); ([| 0.0; -1.0 |], 0.0) ]
  in
  let feasible (x, y) =
    List.for_all (fun (a, r) -> (a.(0) *. x) +. (a.(1) *. y) <= r +. 1e-7) lines
  in
  let candidates = ref [] in
  let n = List.length lines in
  let arr = Array.of_list lines in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      let a1, r1 = arr.(i) and a2, r2 = arr.(j) in
      let det = (a1.(0) *. a2.(1)) -. (a1.(1) *. a2.(0)) in
      if Float.abs det > 1e-9 then begin
        let x = ((r1 *. a2.(1)) -. (r2 *. a1.(1))) /. det in
        let y = ((a1.(0) *. r2) -. (a2.(0) *. r1)) /. det in
        if feasible (x, y) then candidates := (x, y) :: !candidates
      end
    done
  done;
  match !candidates with
  | [] -> None
  | cs ->
      Some
        (List.fold_left
           (fun best (x, y) -> Float.max best ((c.(0) *. x) +. (c.(1) *. y)))
           neg_infinity cs)

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
    (* All-positive coefficients with positive rhs: bounded, feasible. *)
    match brute_force_2d ~c ~rows with
    | None -> Alcotest.fail "brute force found no vertex"
    | Some best ->
        solve_each ~c rows (fun name sol _ ->
            if sol.Problem.status <> `Optimal then
              Alcotest.failf "%s: unexpected %s" name (status_name sol.Problem.status);
            Alcotest.(check (float 1e-5)) (name ^ " agrees with brute force") best
              sol.Problem.objective)
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

(* --- bounded-variable simplex --- *)

let test_bounded_basic () =
  (* max 3x + 5y, x <= 4 native bound, 2y <= 12, 3x + 2y <= 18. *)
  match
    Bounded.solve ~c:[| 3.0; 5.0 |] ~upper:[| 4.0; infinity |]
      ~rows:[ ([| 0.0; 2.0 |], 12.0); ([| 3.0; 2.0 |], 18.0) ]
      ()
  with
  | Bounded.Optimal { objective; solution } ->
      Alcotest.(check (float 1e-6)) "objective" 36.0 objective;
      Alcotest.(check (float 1e-6)) "x" 2.0 solution.(0);
      Alcotest.(check (float 1e-6)) "y" 6.0 solution.(1)
  | _ -> Alcotest.fail "expected optimal"

let test_bounded_pure_bound_flip () =
  (* No rows at all: optimum is every positive-cost variable at its
     upper bound (requires bound flips, no pivots possible). *)
  match
    Bounded.solve ~c:[| 2.0; -1.0 |] ~upper:[| 3.0; 5.0 |] ~rows:[] ()
  with
  | Bounded.Optimal { objective; solution } ->
      Alcotest.(check (float 1e-6)) "objective" 6.0 objective;
      Alcotest.(check (float 1e-6)) "x at ub" 3.0 solution.(0);
      Alcotest.(check (float 1e-6)) "y at lb" 0.0 solution.(1)
  | _ -> Alcotest.fail "expected optimal"

let test_bounded_unbounded () =
  match Bounded.solve ~c:[| 1.0 |] ~upper:[| infinity |] ~rows:[] () with
  | Bounded.Unbounded -> ()
  | _ -> Alcotest.fail "expected unbounded"

let test_bounded_rejects_negative_rhs () =
  Alcotest.check_raises "negative rhs"
    (Invalid_argument "Bounded.solve: negative rhs (origin must be feasible)") (fun () ->
      ignore (Bounded.solve ~c:[| 1.0 |] ~upper:[| 1.0 |] ~rows:[ ([| 1.0 |], -1.0) ] ()))

let test_bounded_vs_sparse_random () =
  (* On random box-bounded problems the two solvers must agree.  The
     random structure is recorded first, then one problem per solver
     is built from it. *)
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
    let run solver =
      let p = Problem.create () in
      let vars = List.map (fun (ub, obj) -> Problem.add_var ~ub ~obj p) vars_spec in
      List.iter
        (fun (coefs, rhs) -> Problem.add_le p (List.combine coefs vars) rhs)
        rows_spec;
      (Problem.solve ~solver p, vars)
    in
    let s1, vars1 = run `Bounded in
    let s2, vars2 = run `Sparse in
    Alcotest.(check bool) "both optimal" true
      (s1.Problem.status = `Optimal && s2.Problem.status = `Optimal);
    Alcotest.(check (float 1e-5)) "objectives agree" s1.Problem.objective s2.Problem.objective;
    (* Both solutions must be feasible for the recorded rows. *)
    List.iter
      (fun (coefs, rhs) ->
        let lhs vars sol =
          List.fold_left2 (fun acc c v -> acc +. (c *. sol.Problem.value v)) 0.0 coefs vars
        in
        Alcotest.(check bool) "bounded feasible" true (lhs vars1 s1 <= rhs +. 1e-6);
        Alcotest.(check bool) "sparse feasible" true (lhs vars2 s2 <= rhs +. 1e-6))
      rows_spec
  done

let test_bounded_shape_rejected () =
  List.iter
    (fun u ->
      Alcotest.check_raises (Printf.sprintf "upper %g" u)
        (Invalid_argument "Bounded.solve: bad upper bound") (fun () ->
          ignore (Bounded.solve ~c:[| 1.0 |] ~upper:[| u |] ~rows:[] ())))
    [ -1.0; neg_infinity; nan ]

(* --- exact iteration budgets --------------------------------------- *)

(* The budget contract is identical for both solvers: a run that
   needs exactly [p] work passes (pivots / bound flips / defensive
   refactorize-retries, as counted by [Solver_metrics.iterations])
   returns its result with [max_iters = p] and [Iteration_limit] with
   [max_iters = p - 1] — never one extra iteration. *)
let check_budget_exact name solve_with =
  let base, iters = solve_with None in
  (match base with
  | `Opt _ -> ()
  | `Limit -> Alcotest.failf "%s: unlimited run hit the iteration limit" name
  | `Other -> Alcotest.failf "%s: expected an optimal base run" name);
  (match (solve_with (Some iters), base) with
  | (`Opt a, _), `Opt b -> Alcotest.(check (float 1e-9)) (name ^ ": budget = work suffices") b a
  | _ -> Alcotest.failf "%s: max_iters = %d (the exact work) must solve" name iters);
  if iters > 0 then
    match solve_with (Some (iters - 1)) with
    | `Limit, _ -> ()
    | _ -> Alcotest.failf "%s: max_iters = %d must hit Iteration_limit" name (iters - 1)

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
    let bounded max_iters =
      let m = Solver_metrics.create () in
      let o =
        match max_iters with
        | None -> Bounded.solve ~metrics:m ~c ~upper ~rows ()
        | Some k -> Bounded.solve ~max_iters:k ~metrics:m ~c ~upper ~rows ()
      in
      ( (match o with
        | Bounded.Optimal { objective; _ } -> `Opt objective
        | Bounded.Iteration_limit -> `Limit
        | _ -> `Other),
        m.Solver_metrics.iterations )
    in
    let sparse max_iters =
      let m = Solver_metrics.create () in
      let o =
        match max_iters with
        | None -> Sparse.solve ~metrics:m ~c ~upper ~rhs ~cols ()
        | Some k -> Sparse.solve ~max_iters:k ~metrics:m ~c ~upper ~rhs ~cols ()
      in
      ( (match o with
        | Sparse.Optimal { objective; _ } -> `Opt objective
        | Sparse.Iteration_limit -> `Limit
        | _ -> `Other),
        m.Solver_metrics.iterations )
    in
    check_budget_exact "bounded" bounded;
    check_budget_exact "sparse" sparse
  done

let test_metrics_accumulate () =
  let m = Solver_metrics.create () in
  let solve () =
    ignore
      (Bounded.solve ~metrics:m ~c:[| 3.0; 5.0 |] ~upper:[| 4.0; infinity |]
         ~rows:[ ([| 0.0; 2.0 |], 12.0); ([| 3.0; 2.0 |], 18.0) ]
         ())
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
        ] );
      ( "problem",
        [
          Alcotest.test_case "basic" `Quick test_problem_basic;
          Alcotest.test_case "unbounded" `Quick test_problem_unbounded;
          Alcotest.test_case "frozen after solve" `Quick test_problem_frozen;
          Alcotest.test_case "bad bounds" `Quick test_problem_bad_bounds;
          Alcotest.test_case "repeated terms" `Quick test_problem_repeated_terms;
        ] );
      ( "bounded",
        [
          Alcotest.test_case "textbook" `Quick test_bounded_basic;
          Alcotest.test_case "pure bound flips" `Quick test_bounded_pure_bound_flip;
          Alcotest.test_case "unbounded" `Quick test_bounded_unbounded;
          Alcotest.test_case "negative rhs rejected" `Quick test_bounded_rejects_negative_rhs;
          Alcotest.test_case "random bounded = sparse" `Quick test_bounded_vs_sparse_random;
          Alcotest.test_case "shape rejection" `Quick test_bounded_shape_rejected;
        ] );
      ( "budget",
        [
          Alcotest.test_case "max_iters exact on all solvers" `Quick test_iteration_budget_exact;
          Alcotest.test_case "metrics accumulate" `Quick test_metrics_accumulate;
        ] );
    ]
