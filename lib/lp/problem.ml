let h_solve_ms =
  Tin_obs.Obs.Histogram.(labeled (make_labeled "lp_solve_ms" ~labels:[ "solver" ]) [ "sparse" ])

type var = int

type status = [ `Optimal | `Unbounded | `Iteration_limit ]

type solution = { status : status; objective : float; value : var -> float }

type var_info = { ub : float; obj : float }

type t = {
  mutable vars : var_info array; (* prefix [0, nvars) is live *)
  mutable nvars : int;
  mutable rows : ((float * var) list * float * bool) list;
      (* reversed (terms, rhs) increments; true if the next row continues it *)
  mutable nrows : int;
  mutable frozen : bool;
}

let dummy_var = { ub = 0.0; obj = 0.0 }

let create () = { vars = [||]; nvars = 0; rows = []; nrows = 0; frozen = false }

let check_open t name = if t.frozen then invalid_arg (name ^ ": problem already solved")

let add_var ?(ub = infinity) ?(obj = 0.0) t =
  check_open t "Problem.add_var";
  if not (ub >= 0.0) then invalid_arg "Problem.add_var: negative or NaN ub";
  if Float.is_nan obj then invalid_arg "Problem.add_var: NaN obj";
  let id = t.nvars in
  if t.nvars = Array.length t.vars then begin
    let grown = Array.make (max 8 (2 * t.nvars)) dummy_var in
    Array.blit t.vars 0 grown 0 t.nvars;
    t.vars <- grown
  end;
  t.vars.(t.nvars) <- { ub; obj };
  t.nvars <- t.nvars + 1;
  id

let add_cumulative t increments =
  check_open t "Problem.add_le";
  List.iter
    (fun (terms, rhs) ->
      if not (rhs >= 0.0) then invalid_arg "Problem.add_le: negative or NaN rhs";
      List.iter
        (fun (coef, v) ->
          if v < 0 || v >= t.nvars then invalid_arg "Problem.add_le: unknown variable";
          if Float.is_nan coef then invalid_arg "Problem.add_le: NaN coefficient")
        terms)
    increments;
  let last = List.length increments - 1 in
  List.iteri (fun k (terms, rhs) -> t.rows <- (terms, rhs, k < last) :: t.rows) increments;
  t.nrows <- t.nrows + last + 1

let add_le t terms rhs = add_cumulative t [ (terms, rhs) ]

let n_vars t = t.nvars
let n_constraints t = t.nrows

let solve ?eps ?max_iters ?metrics t =
  t.frozen <- true;
  let n = t.nvars and m = t.nrows in
  let c = Array.init n (fun j -> t.vars.(j).obj) in
  let upper = Array.init n (fun j -> t.vars.(j).ub) in
  let compute () =
    (* Column lists straight from the increments, never densified.
       [t.rows] is reversed, so row [k] of the list is constraint
       [m - 1 - k]; duplicate terms give duplicate (row, coef)
       entries, which the solver sums. *)
    let rhs = Array.make m 0.0 and next = Array.make m (-1) in
    let cols = Array.make n [] in
    List.iteri
      (fun k (terms, b, continued) ->
        let i = m - 1 - k in
        List.iter (fun (coef, v) -> cols.(v) <- (i, coef) :: cols.(v)) terms;
        rhs.(i) <- b;
        if continued then next.(i) <- i + 1)
      t.rows;
    match Sparse.solve ?eps ?max_iters ?metrics ~c ~upper ~rhs ~cols ~next () with
    | Sparse.Optimal { objective; solution } -> `Optimal (objective, solution)
    | Sparse.Unbounded -> `Unbounded
    | Sparse.Iteration_limit -> `Iteration_limit
  in
  (* Latency histogram; the clock reads are gated so the disabled path
     stays syscall-free. *)
  let compute =
    if Atomic.get Tin_obs.Obs.enabled then fun () ->
      let t0 = Tin_util.Timer.now_ns () in
      let outcome = compute () in
      let dt_ms = Int64.to_float (Int64.sub (Tin_util.Timer.now_ns ()) t0) /. 1e6 in
      Tin_obs.Obs.Histogram.observe h_solve_ms dt_ms;
      outcome
    else compute
  in
  (* Span args are only materialized when tracing is on: the disabled
     path must not allocate. *)
  let outcome =
    if Tin_obs.Obs.recording () then
      Tin_obs.Obs.Span.with_ "lp.solve"
        ~args:[ ("solver", "sparse"); ("vars", string_of_int n); ("rows", string_of_int m) ]
        compute
    else compute ()
  in
  match outcome with
  | `Optimal (objective, solution) ->
      let value v =
        if v < 0 || v >= n then invalid_arg "Problem.solution.value: unknown variable"
        else solution.(v)
      in
      { status = `Optimal; objective; value }
  | (`Unbounded | `Iteration_limit) as status -> { status; objective = 0.0; value = (fun _ -> 0.0) }
