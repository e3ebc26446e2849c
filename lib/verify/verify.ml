module Fcmp = Tin_util.Fcmp
module Prng = Tin_util.Prng
module Obs = Tin_obs.Obs
module TE = Tin_maxflow.Time_expand
module Greedy = Tin_core.Greedy
module Decompose = Tin_core.Decompose
module Provenance = Tin_core.Provenance
module Lp_flow = Tin_core.Lp_flow
module Pipeline = Tin_core.Pipeline
module Preprocess = Tin_core.Preprocess
module Simplify = Tin_core.Simplify
module Solubility = Tin_core.Solubility

type oracle = {
  name : string;
  run : Graph.t -> source:Graph.vertex -> sink:Graph.vertex -> float;
}

let perturbed ?(delta = 0.5) () =
  {
    name = Printf.sprintf "injected(%+g)" delta;
    run = (fun g ~source ~sink -> TE.max_flow g ~source ~sink +. delta);
  }

type discrepancy = { check : string; detail : string }

type outcome = {
  values : (string * float) list;
  discrepancies : discrepancy list;
  obs : (string * (string * int) list) list;
}

(* Per-oracle observability counter deltas: the global counters are
   snapshotted around each oracle run; only counters the oracle
   actually moved are attached.  Empty unless Obs tracking is on. *)
let counter_deltas before after =
  List.filter_map
    (fun (name, v) ->
      let b = match List.assoc_opt name before with Some b -> b | None -> 0 in
      if v > b then Some (name, v - b) else None)
    after

let pp_discrepancy ppf d = Format.fprintf ppf "[%s] %s" d.check d.detail

(* --- residual audit --------------------------------------------------

   One audit for every solution vector, whatever computed it: the
   greedy trace, an optimal LP assignment, or the per-interaction flows
   read back from the time-expanded residual network.  Feasibility of a
   temporal flow (Definition 4 / constraints (1)-(2)) is:

   - capacity: 0 <= amount <= qty for every interaction;
   - temporal conservation: for every vertex v other than source and
     sink and every timestamp tau at which v sends, the cumulative
     quantity sent up to and including tau does not exceed the
     cumulative quantity received strictly before tau;
   - accounting: the quantity arriving at the sink equals the reported
     flow value. *)

type transfer = {
  t_src : Graph.vertex;
  t_dst : Graph.vertex;
  t_time : float;
  t_qty : float;
  t_amount : float;
}

let audit ~eps ~what ~source ~sink ~value transfers add =
  List.iter
    (fun t ->
      if not (Fcmp.approx_ge ~eps t.t_amount 0.0) then
        add (what ^ ":capacity")
          (Printf.sprintf "%d->%d@%g carries %g < 0" t.t_src t.t_dst t.t_time t.t_amount);
      if Float.is_finite t.t_qty && not (Fcmp.approx_le ~eps t.t_amount t.t_qty) then
        add (what ^ ":capacity")
          (Printf.sprintf "%d->%d@%g carries %g > quantity %g" t.t_src t.t_dst t.t_time
             t.t_amount t.t_qty))
    transfers;
  let into_sink =
    List.fold_left (fun acc t -> if t.t_dst = sink then acc +. t.t_amount else acc) 0.0 transfers
  in
  if not (Fcmp.approx_eq ~eps into_sink value) then
    add (what ^ ":sink-total")
      (Printf.sprintf "solution deposits %g at the sink but reports value %g" into_sink value);
  (* Temporal conservation, one time-ordered sweep per vertex: at each
     send time tau, outgoing(<= tau) must fit inside incoming(< tau). *)
  let events : (Graph.vertex, (float * float * bool) list ref) Hashtbl.t = Hashtbl.create 16 in
  let push v e =
    match Hashtbl.find_opt events v with
    | Some l -> l := e :: !l
    | None -> Hashtbl.add events v (ref [ e ])
  in
  List.iter
    (fun t ->
      if t.t_src <> source && t.t_src <> sink then push t.t_src (t.t_time, t.t_amount, false);
      if t.t_dst <> source && t.t_dst <> sink then push t.t_dst (t.t_time, t.t_amount, true))
    transfers;
  Hashtbl.iter
    (fun v evs ->
      let evs = Array.of_list !evs in
      Array.sort (fun (a, _, _) (b, _, _) -> Float.compare a b) evs;
      let n = Array.length evs in
      let in_cum = ref 0.0 and out_cum = ref 0.0 in
      let i = ref 0 in
      while !i < n do
        let tau, _, _ = evs.(!i) in
        let stop = ref !i in
        while
          !stop < n
          &&
          let t, _, _ = evs.(!stop) in
          Float.equal t tau
        do
          incr stop
        done;
        let had_out = ref false in
        for k = !i to !stop - 1 do
          let _, amount, incoming = evs.(k) in
          if not incoming then begin
            out_cum := !out_cum +. amount;
            if amount > 0.0 then had_out := true
          end
        done;
        if !had_out && not (Fcmp.approx_le ~eps !out_cum !in_cum) then
          add (what ^ ":conservation")
            (Printf.sprintf "vertex %d sent %g by time %g but received only %g before it" v
               !out_cum tau !in_cum);
        for k = !i to !stop - 1 do
          let _, amount, incoming = evs.(k) in
          if incoming then in_cum := !in_cum +. amount
        done;
        i := !stop
      done)
    events

(* --- the differential check ----------------------------------------- *)

let oracle_names =
  [ "greedy"; "lp:sparse"; "te:dinic"; "pipeline:pre"; "pipeline:presim" ]
  @ [ "decomp"; "prov:lrb"; "prov:mrb"; "prov:prop" ]

let check ?(policy = Fcmp.default_policy) ?(extra = []) g ~source ~sink =
  let eps = policy.Fcmp.flow_eps in
  let discrepancies = ref [] in
  let add check detail = discrepancies := { check; detail } :: !discrepancies in
  let values = ref [] in
  let record name v = values := (name, v) :: !values in
  let obs = ref [] in
  let guarded name f =
    let before = if Obs.tracking () then Obs.counters () else [] in
    let attach () =
      if Obs.tracking () then begin
        match counter_deltas before (Obs.counters ()) with
        | [] -> ()
        | d -> obs := (name, d) :: !obs
      end
    in
    match f () with
    | v ->
        attach ();
        Some v
    | exception e ->
        attach ();
        add "oracle-crash" (name ^ " raised " ^ Printexc.to_string e);
        None
  in
  (* Greedy lower bound, audited through its own trace. *)
  let greedy =
    guarded "greedy" (fun () ->
        let value, trace = Greedy.flow_trace g ~source ~sink in
        let transfers =
          List.map
            (fun (tr : Greedy.transfer) ->
              {
                t_src = tr.Greedy.src;
                t_dst = tr.Greedy.dst;
                t_time = tr.Greedy.time;
                t_qty = tr.Greedy.offered;
                t_amount = tr.Greedy.moved;
              })
            trace
        in
        audit ~eps ~what:"greedy" ~source ~sink ~value transfers add;
        value)
  in
  (* The two maximum-flow formulations, each audited through its
     solution vector: the LP (sparse simplex) and Dinic's static flow
     on the time-expanded network. *)
  let oracle name f = Option.iter (record name) (guarded name f) in
  oracle "lp:sparse" (fun () ->
      match Lp_flow.solve_detailed ~eps:policy.Fcmp.pivot_eps g ~source ~sink with
      | Error e ->
          failwith (match e with `Unbounded -> "unbounded" | `Iteration_limit -> "iteration limit")
      | Ok (value, assigns) ->
          let transfers =
            List.map
              (fun (a : Lp_flow.assignment) ->
                {
                  t_src = a.Lp_flow.src;
                  t_dst = a.Lp_flow.dst;
                  t_time = Interaction.time a.Lp_flow.interaction;
                  t_qty = Interaction.qty a.Lp_flow.interaction;
                  t_amount = a.Lp_flow.amount;
                })
              assigns
          in
          audit ~eps ~what:"lp:sparse" ~source ~sink ~value transfers add;
          value);
  oracle "te:dinic" (fun () ->
      let sol = TE.max_flow_detailed g ~source ~sink in
      let transfers =
        List.map
          (fun ((v, u, i), f) ->
            {
              t_src = v;
              t_dst = u;
              t_time = Interaction.time i;
              t_qty = Interaction.qty i;
              t_amount = f;
            })
          sol.TE.interaction_flows
      in
      audit ~eps ~what:"te:dinic" ~source ~sink ~value:sol.TE.value transfers add;
      sol.TE.value);
  (* The accelerated pipeline with the simplification stage toggled on
     and off, plus any caller-injected oracles. *)
  oracle "pipeline:pre" (fun () -> Pipeline.compute Pipeline.Pre g ~source ~sink);
  oracle "pipeline:presim" (fun () -> Pipeline.compute Pipeline.Pre_sim g ~source ~sink);
  List.iter (fun o -> oracle o.name (fun () -> o.run g ~source ~sink)) extra;
  (* Flow decomposition: the peeled path amounts must reassemble the
     max-flow value (allowing eps-sized numerical crumbs per path),
     every path must be a temporal source->sink route, and no
     individual interaction — parallel same-timestamp interactions
     included — may carry more than its own quantity. *)
  (match guarded "decomp" (fun () -> Decompose.max_flow_paths g ~source ~sink) with
  | None -> ()
  | Some (value, paths) ->
      let n_paths = List.length paths in
      let total = List.fold_left (fun acc p -> acc +. p.Decompose.amount) 0.0 paths in
      if not (Fcmp.approx_eq ~eps:(eps *. float_of_int (max 1 n_paths)) value total) then
        add "decomp-not-conserving"
          (Printf.sprintf "%d paths sum to %g but the max flow is %g" n_paths total value);
      List.iter
        (fun p ->
          if not (p.Decompose.amount > 0.0) then
            add "decomp-nonpositive-path"
              (Printf.sprintf "path carries %g" p.Decompose.amount);
          match p.Decompose.legs with
          | [] -> add "decomp-empty-path" "path has no legs"
          | legs ->
              if (List.hd legs).Decompose.src <> source then
                add "decomp-anchor" "path does not start at the source";
              if (List.nth legs (List.length legs - 1)).Decompose.dst <> sink then
                add "decomp-anchor" "path does not end at the sink";
              let rec increasing = function
                | a :: (b :: _ as rest) ->
                    a.Decompose.time < b.Decompose.time && increasing rest
                | _ -> true
              in
              if not (increasing legs) then
                add "decomp-not-temporal" "legs are not strictly time-increasing")
        paths;
      List.iter
        (fun u ->
          if
            Float.is_finite u.Decompose.u_offered
            && not (Fcmp.approx_le ~eps u.Decompose.u_carried u.Decompose.u_offered)
          then
            add "decomp-overdriven"
              (Printf.sprintf "interaction #%d %d->%d@%g carries %g > quantity %g"
                 u.Decompose.u_inter u.Decompose.u_src u.Decompose.u_dst u.Decompose.u_time
                 u.Decompose.u_carried u.Decompose.u_offered))
        (Decompose.per_interaction paths);
      record "decomp" value);
  (* Provenance engine, in source-rooted absorb-at-sink mode: the
     scalar side mirrors the greedy scan exactly, so per-vertex totals
     must equal [Greedy.buffers] bit for bit (and the sink total the
     greedy flow) — policy-invariant, Proportional checked against the
     buffers directly and lrb/mrb against Proportional's totals.  Each
     policy's vectors must be non-negative, conserve mass per vertex,
     name only origins the source sent (validated against the fixed
     scan-order numbering shared with [Decompose.leg.inter]), never
     attribute more mass to an origin than that interaction's
     quantity. *)
  (match greedy with
  | None -> ()
  | Some greedy_v ->
      let inters = Graph.interactions_sorted g in
      let ref_totals = ref None in
      List.iter
        (fun policy ->
          let name = "prov:" ^ Provenance.policy_name policy in
          match guarded name (fun () -> Provenance.run ~policy ~source ~absorb:sink g) with
          | None -> ()
          | Some r ->
              (match !ref_totals with
              | None -> ref_totals := Some (name, r.Provenance.totals)
              | Some (ref_name, ref_t) ->
                  if
                    not
                      (List.for_all2
                         (fun (v1, t1) (v2, t2) -> v1 = v2 && Float.equal t1 t2)
                         ref_t r.Provenance.totals)
                  then
                    add "prov-policy-total-drift"
                      (Printf.sprintf "%s totals differ from %s (scalars are policy-invariant)"
                         name ref_name));
              if policy = Provenance.Proportional then begin
                (match List.assoc_opt sink r.Provenance.totals with
                | Some t when Float.equal t greedy_v -> ()
                | Some t ->
                    add "prov-sink-not-greedy"
                      (Printf.sprintf "%s sink total %.17g but greedy flow %.17g" name t
                         greedy_v)
                | None -> add "prov-sink-not-greedy" (name ^ " reports no sink total"));
                let buffers = Greedy.buffers g ~source ~sink in
                if
                  not
                    (List.for_all2
                       (fun (v1, t1) (v2, t2) -> v1 = v2 && Float.equal t1 t2)
                       buffers r.Provenance.totals)
                then
                  add "prov-total-mismatch"
                    (name ^ " per-vertex totals differ from Greedy.buffers")
              end;
              List.iter
                (fun (v, vec) ->
                  let sum = List.fold_left (fun acc (_, m) -> acc +. m) 0.0 vec in
                  (match List.assoc_opt v r.Provenance.totals with
                  | Some t when Float.is_finite t && Float.is_finite sum ->
                      if not (Fcmp.approx_eq ~eps t sum) then
                        add "prov-mass-mismatch"
                          (Printf.sprintf "%s vertex %d holds %g but its vector sums to %g"
                             name v t sum)
                  | _ -> ());
                  List.iter
                    (fun (o, m) ->
                      if m < 0.0 then
                        add "prov-negative"
                          (Printf.sprintf "%s vertex %d carries %g from %s" name v m
                             (Provenance.describe_origin o));
                      match o with
                      | Provenance.Inter i ->
                          if i.index < 0 || i.index >= Array.length inters then
                            add "prov-origin-unknown"
                              (Printf.sprintf "%s names interaction #%d of %d" name i.index
                                 (Array.length inters))
                          else begin
                            let s, d, it = inters.(i.index) in
                            if
                              not
                                (s = i.src && d = i.dst
                                && Float.equal (Interaction.time it) i.time
                                && Float.equal (Interaction.qty it) i.qty)
                            then
                              add "prov-origin-identity"
                                (Printf.sprintf "%s origin #%d does not match scan order" name
                                   i.index);
                            if s <> source then
                              add "prov-foreign-origin"
                                (Printf.sprintf
                                   "%s attributes mass to #%d sent by %d, not the source" name
                                   i.index s);
                            if
                              Float.is_finite m
                              && Float.is_finite i.qty
                              && not (Fcmp.approx_le ~eps m i.qty)
                            then
                              add "prov-origin-capacity"
                                (Printf.sprintf "%s vertex %d holds %g from #%d of quantity %g"
                                   name v m i.index i.qty)
                          end
                      | _ -> ())
                    vec)
                r.Provenance.vectors)
        [ Provenance.Proportional; Provenance.Lrb; Provenance.Mrb ]);
  let maxes = List.rev !values in
  (match greedy with Some gv -> record "greedy" gv | None -> ());
  (* Pairwise agreement of all maximum-flow oracles under the shared
     tolerance. *)
  let rec pairwise = function
    | [] -> ()
    | (n1, v1) :: rest ->
        List.iter
          (fun (n2, v2) ->
            if not (Fcmp.approx_eq ~eps v1 v2) then
              add "max-flow-disagreement" (Printf.sprintf "%s=%g vs %s=%g" n1 v1 n2 v2))
          rest;
        pairwise rest
  in
  pairwise maxes;
  (* Greedy is a lower bound on every maximum-flow oracle. *)
  (match greedy with
  | None -> ()
  | Some gv ->
      List.iter
        (fun (name, v) ->
          if not (Fcmp.approx_le ~eps gv v) then
            add "greedy-exceeds-max" (Printf.sprintf "greedy=%g > %s=%g" gv name v))
        maxes);
  (* Solubility test consistent with greedy == max. *)
  (match (greedy, maxes) with
  | Some gv, (name, mv) :: _ ->
      if Solubility.soluble g ~source ~sink && not (Fcmp.approx_eq ~eps gv mv) then
        add "solubility-inconsistent"
          (Printf.sprintf "graph tests soluble but greedy=%g <> %s=%g" gv name mv)
  | _ -> ());
  (* Preprocessing and chain simplification are value-preserving (both
     are DAG-only accelerators). *)
  (match maxes with
  | (_, reference) :: _ when Topo.is_dag g -> (
      match guarded "preprocess" (fun () -> Preprocess.run g ~source ~sink) with
      | None -> ()
      | Some pre ->
          if pre.Preprocess.zero_flow then begin
            if not (Fcmp.is_zero ~eps reference) then
              add "preprocess-not-value-preserving"
                (Printf.sprintf "preprocessing claims zero flow but reference is %g" reference)
          end
          else begin
            (match
               guarded "preprocess-reference" (fun () ->
                   TE.max_flow pre.Preprocess.graph ~source ~sink)
             with
            | Some v when not (Fcmp.approx_eq ~eps v reference) ->
                add "preprocess-not-value-preserving"
                  (Printf.sprintf "max flow %g after preprocessing, %g before" v reference)
            | _ -> ());
            match
              guarded "simplify" (fun () ->
                  let sim = Simplify.run pre.Preprocess.graph ~source ~sink in
                  TE.max_flow sim.Simplify.graph ~source ~sink)
            with
            | Some v when not (Fcmp.approx_eq ~eps v reference) ->
                add "simplify-not-value-preserving"
                  (Printf.sprintf "max flow %g after simplification, %g before" v reference)
            | _ -> ()
          end)
  | _ -> ());
  { values = List.rev !values; discrepancies = List.rev !discrepancies; obs = List.rev !obs }

let fails ?policy ?extra g ~source ~sink =
  (check ?policy ?extra g ~source ~sink).discrepancies <> []

(* --- shrinking -------------------------------------------------------

   Greedy structural minimization: repeatedly take the first
   still-failing reduction among (vertex removal, edge removal, single
   interaction removal).  Every move strictly shrinks the instance, so
   the loop terminates; the step cap is a safety net only.  Source and
   sink are never removed — the oracles require both present. *)

let shrink ?policy ?extra g0 ~source ~sink =
  let still_fails g = fails ?policy ?extra g ~source ~sink in
  let candidates g =
    let vertex_moves =
      List.filter_map
        (fun v -> if v = source || v = sink then None else Some (Graph.remove_vertex g v))
        (Graph.vertices g)
    in
    let edges = Graph.fold_edges (fun s d _ acc -> (s, d) :: acc) g [] in
    let edge_moves = List.map (fun (s, d) -> Graph.remove_edge g ~src:s ~dst:d) edges in
    let inter_moves =
      List.concat_map
        (fun (s, d) ->
          let is = Graph.edge g ~src:s ~dst:d in
          if List.length is < 2 then []
          else
            List.mapi
              (fun k _ -> Graph.set_edge g ~src:s ~dst:d (List.filteri (fun j _ -> j <> k) is))
              is)
        edges
    in
    vertex_moves @ edge_moves @ inter_moves
  in
  let rec go g steps =
    if steps <= 0 then g
    else
      match List.find_opt still_fails (candidates g) with
      | Some g' -> go g' (steps - 1)
      | None -> g
  in
  if still_fails g0 then go g0 500 else g0

(* --- fuzzing driver -------------------------------------------------- *)

type failure = {
  case_index : int;
  case : Gen.case;
  shrunk : Graph.t;
  outcome : outcome;
  csv : string option;
}

type fuzz_report = { cases_run : int; failures : failure list }

let dump_csv path g ~source ~sink outcome =
  Io.save_csv path g;
  Out_channel.with_open_gen [ Open_wronly; Open_append; Open_text ] 0o644 path (fun oc ->
      Printf.fprintf oc "# minimal counterexample: source=%d sink=%d\n" source sink;
      List.iter
        (fun d -> Printf.fprintf oc "# %s: %s\n" d.check d.detail)
        outcome.discrepancies;
      List.iter
        (fun (oracle, deltas) ->
          Printf.fprintf oc "# obs %s:%s\n" oracle
            (String.concat ""
               (List.map (fun (c, v) -> Printf.sprintf " %s=%d" c v) deltas)))
        outcome.obs)

let fuzz ?policy ?extra ?dump_dir ?(progress = fun _ _ -> ()) ~seed ~cases () =
  let rng = Prng.create ~seed in
  let failures = ref [] in
  for case_index = 1 to cases do
    let case = Gen.case rng in
    let source = case.Gen.source and sink = case.Gen.sink in
    let outcome = check ?policy ?extra case.Gen.graph ~source ~sink in
    let outcome =
      if Gen.self_loop_rejected case.Gen.graph then outcome
      else
        {
          outcome with
          discrepancies =
            outcome.discrepancies
            @ [ { check = "self-loop-accepted"; detail = "Graph accepted a self-loop" } ];
        }
    in
    if outcome.discrepancies <> [] then begin
      let shrunk = shrink ?policy ?extra case.Gen.graph ~source ~sink in
      let outcome =
        (* Re-check the shrunk instance so the reported discrepancies
           match the dumped counterexample. *)
        let o = check ?policy ?extra shrunk ~source ~sink in
        if o.discrepancies <> [] then o else outcome
      in
      let csv =
        Option.map
          (fun dir ->
            let path =
              Filename.concat dir
                (Printf.sprintf "counterexample-seed%d-case%d.csv" seed case_index)
            in
            dump_csv path shrunk ~source ~sink outcome;
            path)
          dump_dir
      in
      failures := { case_index; case; shrunk; outcome; csv } :: !failures
    end;
    progress case_index (List.length !failures)
  done;
  { cases_run = cases; failures = List.rev !failures }
