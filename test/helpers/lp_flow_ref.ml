(* Reference builder for the flow LP, sharing no row code with
   [Tin_core.Lp_flow]: the cumulative form of Eq. 2 written out in
   full, one [add_le] per row, each row repeating every earlier
   outgoing and incoming variable of its vertex (O(k²) nonzeros for k
   events).  [Lp_flow.build] stores the same rows as chains of
   increments; the two must state the same LP — the same variables
   and rows in the same order — and so reach the same optimum with
   the same pivots. *)

module Problem = Tin_lp.Problem

type lp = { problem : Problem.t; n_vars : int; n_rows : int; fixed_into_sink : float }

type event = { time : float; qty : float; var : Problem.var option; incoming : bool }

let build g ~source ~sink =
  let problem = Problem.create () in
  let events : (Graph.vertex, event list ref) Hashtbl.t = Hashtbl.create 64 in
  let push v e =
    match Hashtbl.find_opt events v with
    | Some l -> l := e :: !l
    | None -> Hashtbl.add events v (ref [ e ])
  in
  let n_vars = ref 0 and fixed_into_sink = ref 0.0 in
  Graph.iter_edges
    (fun v u is ->
      List.iter
        (fun i ->
          let time = Interaction.time i and qty = Interaction.qty i in
          if v = source then begin
            if u = sink then fixed_into_sink := !fixed_into_sink +. qty
            else push u { time; qty; var = None; incoming = true }
          end
          else if v <> sink then begin
            let var = Problem.add_var ~ub:qty ~obj:(if u = sink then 1.0 else 0.0) problem in
            incr n_vars;
            push v { time; qty; var = Some var; incoming = false };
            if u <> sink && u <> source then push u { time; qty; var = Some var; incoming = true }
          end)
        is)
    g;
  (* At each distinct sending time τ of a vertex: cumulative outgoing
     (≤ τ) minus cumulative incoming variables (< τ) ≤ cumulative fixed
     inflow (< τ); no row once that inflow is infinite. *)
  let n_rows = ref 0 in
  Hashtbl.iter
    (fun v evs ->
      if v <> source && v <> sink then begin
        let evs = Array.of_list !evs in
        Array.sort (fun a b -> Float.compare a.time b.time) evs;
        let n = Array.length evs in
        let in_vars = ref [] and in_fixed = ref 0.0 and out_vars = ref [] in
        let i = ref 0 in
        while !i < n do
          let tau = evs.(!i).time in
          let stop = ref !i in
          while !stop < n && Float.equal evs.(!stop).time tau do
            incr stop
          done;
          let has_out = ref false in
          for k = !i to !stop - 1 do
            match evs.(k) with
            | { incoming = false; var = Some x; _ } ->
                out_vars := (1.0, x) :: !out_vars;
                has_out := true
            | _ -> ()
          done;
          if !has_out && !in_fixed < infinity then begin
            let terms = List.rev_append !out_vars (List.map (fun (c, x) -> (-.c, x)) !in_vars) in
            Problem.add_le problem terms !in_fixed;
            incr n_rows
          end;
          for k = !i to !stop - 1 do
            let e = evs.(k) in
            if e.incoming then
              match e.var with
              | Some x -> in_vars := (1.0, x) :: !in_vars
              | None -> in_fixed := !in_fixed +. e.qty
          done;
          i := !stop
        done
      end)
    events;
  { problem; n_vars = !n_vars; n_rows = !n_rows; fixed_into_sink = !fixed_into_sink }

(* The flow value, with the solver's work counts added to [metrics]. *)
let solve ?metrics g ~source ~sink =
  let lp = build g ~source ~sink in
  if lp.n_vars = 0 then Ok lp.fixed_into_sink
  else
    let sol = Problem.solve ?metrics lp.problem in
    match sol.Problem.status with
    | `Optimal -> Ok (sol.Problem.objective +. lp.fixed_into_sink)
    | (`Unbounded | `Iteration_limit) as e -> Error e
