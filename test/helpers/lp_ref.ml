(* Brute-force LP reference by vertex enumeration, sharing no code with
   the simplex.

   Solves [max c·x] subject to [a·x <= b] for each row and
   [0 <= x_j <= upper.(j)].  Every vertex of that polytope is the
   solution of n tight constraints, chosen among the rows, the n lower
   bounds and the finite upper bounds.  Each choice is solved by
   Gaussian elimination with partial pivoting; singular choices are
   skipped, feasible points kept, and the best objective wins.

   An infinite upper bound is replaced by an artificial bound [m], so
   the polytope is bounded and its optimum sits at a vertex.  Solving
   again at [2m] tells the outcomes apart: a bounded LP has the same
   optimum at both, an unbounded one grows with the bound.  [m] must
   exceed every coordinate of the optimal vertex; if it does not, the
   optimum grows too, and the reference reports [`Unbounded] for a
   bounded LP — a false alarm, never a missed bug. *)

type outcome = [ `Optimal of float | `Unbounded ]

(* Solves the n x n system [a x = b] in place; [None] when singular. *)
let gauss a b =
  let n = Array.length b in
  let singular = ref false in
  for col = 0 to n - 1 do
    if not !singular then begin
      let p = ref col in
      for r = col + 1 to n - 1 do
        if Float.abs a.(r).(col) > Float.abs a.(!p).(col) then p := r
      done;
      if Float.abs a.(!p).(col) < 1e-9 then singular := true
      else begin
        let swap v =
          let t = v.(col) in
          v.(col) <- v.(!p);
          v.(!p) <- t
        in
        swap a;
        swap b;
        for r = 0 to n - 1 do
          if r <> col then begin
            let f = a.(r).(col) /. a.(col).(col) in
            if f <> 0.0 then begin
              for k = col to n - 1 do
                a.(r).(k) <- a.(r).(k) -. (f *. a.(col).(k))
              done;
              b.(r) <- b.(r) -. (f *. b.(col))
            end
          end
        done
      end
    end
  done;
  if !singular then None else Some (Array.init n (fun i -> b.(i) /. a.(i).(i)))

(* Best objective over the vertices, with infinite upper bounds cut at
   [m].  The origin is always feasible ([b >= 0]), so there is one. *)
let best_vertex ~c ~upper ~rows m =
  let n = Array.length c in
  let unit j s = Array.init n (fun k -> if k = j then s else 0.0) in
  let halfspaces =
    Array.of_list
      (rows
      @ List.init n (fun j -> (unit j (-1.0), 0.0))
      @ List.init n (fun j -> (unit j 1.0, if Float.is_finite upper.(j) then upper.(j) else m)))
  in
  let k = Array.length halfspaces in
  let feasible x =
    Array.for_all
      (fun (a, b) ->
        let lhs = ref 0.0 and scale = ref (1.0 +. Float.abs b) in
        Array.iteri
          (fun j aj ->
            lhs := !lhs +. (aj *. x.(j));
            scale := !scale +. Float.abs (aj *. x.(j)))
          a;
        !lhs <= b +. (1e-9 *. !scale))
      halfspaces
  in
  let best = ref neg_infinity in
  (* Every n-subset of the halfspaces, as increasing index lists. *)
  let rec choose start left acc =
    if left = 0 then begin
      let tight = Array.of_list (List.rev acc) in
      let a = Array.map (fun i -> Array.copy (fst halfspaces.(i))) tight in
      let b = Array.map (fun i -> snd halfspaces.(i)) tight in
      match gauss a b with
      | Some x when feasible x ->
          let obj = ref 0.0 in
          Array.iteri (fun j cj -> obj := !obj +. (cj *. x.(j))) c;
          best := Float.max !best !obj
      | _ -> ()
    end
    else
      for i = start to k - left do
        choose (i + 1) (left - 1) (i :: acc)
      done
  in
  choose 0 n [];
  !best

let solve ?(m = 1e6) ~c ~upper ~rows () : outcome =
  if List.exists (fun (a, _) -> Array.length a <> Array.length c) rows then
    invalid_arg "Lp_ref.solve: row arity mismatch";
  let at_m = best_vertex ~c ~upper ~rows m in
  if Array.for_all Float.is_finite upper then `Optimal at_m
  else
    let at_2m = best_vertex ~c ~upper ~rows (2.0 *. m) in
    if at_2m > at_m +. (1e-6 *. Float.max 1.0 (Float.abs at_m)) then `Unbounded
    else `Optimal at_m
