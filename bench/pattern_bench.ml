(* Pattern-search experiments: Tables 9-11 (GB vs PB).

   PB runs to completion (with the paper's 3000-instance cap on the
   LP-per-instance patterns P4/P6); GB gets a wall-clock budget, and
   when it cannot finish, the total time is extrapolated from its
   instance rate — the paper does the same ("15 days (est.)" for P5 on
   Bitcoin, early termination for the starred P4/P6 rows). *)

module Batch = Tin_core.Batch
module Catalog = Tin_patterns.Catalog
module Tables = Tin_patterns.Tables
module Table = Tin_util.Table
module Timer = Tin_util.Timer

(* Patterns per dataset, as in the paper: P1/RP1 only where the chain
   table was precomputed (Prosper). *)
let patterns_for d =
  let with_chains = d.Workload.pattern_table_id = 11 in
  List.filter (fun p -> with_chains || not (Catalog.needs_chains p)) Catalog.all

let pattern_limit scale pattern =
  match pattern with
  | Catalog.Rigid (Catalog.P4 | Catalog.P6) -> scale.Workload.lp_pattern_limit
  | _ -> scale.Workload.gb_limit

let run_dataset scale d =
  let spec_name = d.Workload.spec.Tin_datasets.Spec.name in
  let with_chains = d.Workload.pattern_table_id = 11 in
  let gb_budget_ms = scale.Workload.gb_budget_ms in
  let tables, pre_ms =
    Timer.time_ms (fun () -> Catalog.precompute ~with_chains d.Workload.net)
  in
  let rows =
    List.map
      (fun pattern ->
        let limit = pattern_limit scale pattern in
        let pb, pb_ms =
          Timer.time_ms (fun () -> Catalog.pb ~limit d.Workload.net tables pattern)
        in
        let gb, gb_ms =
          Timer.time_ms (fun () ->
              Catalog.gb ~limit ~time_budget_ms:gb_budget_ms d.Workload.net pattern)
        in
        (* When neither search was cut short they must agree exactly. *)
        if
          (not gb.Catalog.truncated) && (not pb.Catalog.truncated)
          && gb.Catalog.instances <> pb.Catalog.instances
        then
          failwith
            (Printf.sprintf "GB/PB instance disagreement on %s/%s: %d vs %d" spec_name
               (Catalog.pattern_name pattern) gb.Catalog.instances pb.Catalog.instances);
        let gb_time =
          if gb.Catalog.timed_out && gb.Catalog.instances > 0 then
            (* Extrapolate from the instance rate, like the paper's
               "(est.)" entries. *)
            Table.fmt_ms
              (gb_ms *. float_of_int pb.Catalog.instances /. float_of_int gb.Catalog.instances)
            ^ " (est.)"
          else if gb.Catalog.timed_out then ">" ^ Table.fmt_ms gb_ms
          else Table.fmt_ms gb_ms
        in
        let star = if pb.Catalog.truncated then "*" else "" in
        [
          Catalog.pattern_name pattern ^ star;
          Table.fmt_count (float_of_int pb.Catalog.instances);
          Table.fmt_flow (Catalog.avg_flow pb);
          gb_time;
          Table.fmt_ms pb_ms;
        ])
      (patterns_for d)
  in
  Table.print
    ~title:
      (Printf.sprintf "Table %d: Pattern search on %s%s" d.Workload.pattern_table_id spec_name
         (if with_chains then " (incl. 2-hop chain table)" else ""))
    ~header:[ "Pattern"; "Instances"; "Average flow"; "GB"; "PB" ]
    rows;
  Printf.printf
    "  -> precomputation: %s (L2: %d rows, L3: %d rows%s); * = capped (P4/P6 at %d, like the paper's 3000)\n\n%!"
    (Table.fmt_ms pre_ms) (Tables.n_rows tables.Catalog.l2) (Tables.n_rows tables.Catalog.l3)
    (match tables.Catalog.c2 with
    | Some c2 -> Printf.sprintf ", chains: %d rows" (Tables.n_rows c2)
    | None -> "")
    scale.Workload.lp_pattern_limit

let run scale datasets = List.iter (run_dataset scale) datasets

(* ------------------------------------------------------------------ *)
(* Parallel jobs sweep (BENCH_pattern.json)                            *)
(* ------------------------------------------------------------------ *)

(* Same job ladder as the solver benchmark: always include jobs = 2 so
   the multi-domain path runs even on one core, then only counts the
   hardware supports. *)
let job_counts () =
  let rec_jobs = Batch.recommended_jobs () in
  List.sort_uniq compare (1 :: 2 :: rec_jobs :: List.filter (fun j -> j <= rec_jobs) [ 4; 8 ])

type run_point = {
  jobs : int;
  gb_ms : float;
  gb_instances : int;
  gb_truncated : bool;
  pb_ms : float;
  pb_instances : int;
}

type pattern_sweep = { pattern : string; points : run_point list }

type dataset_sweep = {
  ds_name : string;
  precompute_ms : (int * float) list; (* jobs -> wall ms *)
  l2_rows : int;
  l3_rows : int;
  chain_rows : int option;
  sweeps : pattern_sweep list;
  obs : (string * int) list;
}

(* A separate instrumented pass (timed runs stay uninstrumented): one
   GB and one PB search per pattern with counters on, so
   BENCH_pattern.json records tickets consumed, anchors sharded,
   deadline hits and the per-instance LP work for regression
   tracking. *)
let obs_snapshot scale d tables =
  let module Obs = Tin_obs.Obs in
  Obs.reset ();
  Obs.enable ();
  List.iter
    (fun pattern ->
      let limit = pattern_limit scale pattern in
      ignore
        (Catalog.gb ~limit ?time_budget_ms:scale.Workload.sweep_budget_ms d.Workload.net pattern);
      ignore (Catalog.pb ~limit d.Workload.net tables pattern))
    (patterns_for d);
  Obs.disable ();
  let counters = List.filter (fun (_, v) -> v > 0) (Obs.counters ()) in
  Obs.reset ();
  counters

(* The sweep uses its own budget ([sweep_budget_ms]): each (pattern,
   jobs) cell repeats the whole search, and the point is the
   throughput ratio, not completion.  At quick scale there is none, so
   the recorded instance counts never depend on the clock. *)
let sweep_dataset scale d =
  let with_chains = d.Workload.pattern_table_id = 11 in
  let jobs_list = job_counts () in
  let tables = ref None in
  let precompute_ms =
    List.map
      (fun jobs ->
        let t, ms =
          Timer.time_ms (fun () -> Catalog.precompute ~jobs ~with_chains d.Workload.net)
        in
        tables := Some t;
        (jobs, ms))
      jobs_list
  in
  let tables = Option.get !tables in
  let sweeps =
    List.map
      (fun pattern ->
        let limit = pattern_limit scale pattern in
        let points =
          List.map
            (fun jobs ->
              let gb, gb_ms =
                Timer.time_ms (fun () ->
                    Catalog.gb ~jobs ~limit ?time_budget_ms:scale.Workload.sweep_budget_ms
                      d.Workload.net pattern)
              in
              let pb, pb_ms =
                Timer.time_ms (fun () -> Catalog.pb ~jobs ~limit d.Workload.net tables pattern)
              in
              {
                jobs;
                gb_ms;
                gb_instances = gb.Catalog.instances;
                gb_truncated = gb.Catalog.truncated;
                pb_ms;
                pb_instances = pb.Catalog.instances;
              })
            jobs_list
        in
        { pattern = Catalog.pattern_name pattern; points })
      (patterns_for d)
  in
  {
    ds_name = d.Workload.spec.Tin_datasets.Spec.name;
    precompute_ms;
    l2_rows = Tables.n_rows tables.Catalog.l2;
    l3_rows = Tables.n_rows tables.Catalog.l3;
    chain_rows = Option.map Tables.n_rows tables.Catalog.c2;
    sweeps;
    obs = obs_snapshot scale d tables;
  }

(* On a single domain a jobs > 1 run time-slices that one domain, so
   its wall time is scheduling noise: as in the solver benchmark, such
   rows' timings are refused rather than recorded.  The runs still
   happen, so the multi-domain code path is still exercised and its
   instance counts are kept. *)
let refused jobs = jobs > 1 && Batch.recommended_jobs () = 1

let per_s instances ms = if ms > 0.0 then float_of_int instances /. (ms /. 1000.0) else 0.0

let speedup_vs_1 points point value_of =
  match List.find_opt (fun p -> p.jobs = 1) points with
  | Some base when value_of base > 0.0 -> value_of point /. value_of base
  | _ -> 1.0

let dataset_json r =
  let open Tin_util.Json in
  let row jobs ~counts timings =
    let timings = if refused jobs then [ ("skipped", Str "single_domain") ] else timings in
    Obj ((("jobs", int jobs) :: counts) @ timings)
  in
  let pre1 = try List.assoc 1 r.precompute_ms with Not_found -> 0.0 in
  let precompute (jobs, ms) =
    let speedup = if ms > 0.0 && pre1 > 0.0 then pre1 /. ms else 1.0 in
    row jobs ~counts:[] [ ("wall_ms", Num ms); ("speedup_vs_1", Num speedup) ]
  in
  let run s p =
    let gb_per_s q = per_s q.gb_instances q.gb_ms and pb_per_s q = per_s q.pb_instances q.pb_ms in
    row p.jobs
      ~counts:
        [
          ("gb_instances", int p.gb_instances); ("gb_truncated", Bool p.gb_truncated);
          ("pb_instances", int p.pb_instances);
        ]
      [
        ("gb_ms", Num p.gb_ms); ("gb_per_s", Num (gb_per_s p));
        ("gb_speedup_vs_1", Num (speedup_vs_1 s.points p gb_per_s)); ("pb_ms", Num p.pb_ms);
        ("pb_per_s", Num (pb_per_s p)); ("pb_speedup_vs_1", Num (speedup_vs_1 s.points p pb_per_s));
      ]
  in
  let pattern s = Obj [ ("name", Str s.pattern); ("runs", Arr (List.map (run s) s.points)) ] in
  let chains = match r.chain_rows with Some c -> [ ("chains", int c) ] | None -> [] in
  Obj
    [
      ("name", Str r.ds_name);
      ("table_rows", Obj ([ ("l2", int r.l2_rows); ("l3", int r.l3_rows) ] @ chains));
      ("precompute", Arr (List.map precompute r.precompute_ms));
      ("patterns", Arr (List.map pattern r.sweeps));
      ("obs", Obj (List.map (fun (n, v) -> (n, int v)) r.obs));
    ]

let sweep_table r =
  Table.print
    ~title:(Printf.sprintf "Parallel pattern search on %s (speedup vs jobs=1)" r.ds_name)
    ~header:[ "Pattern"; "jobs"; "GB"; "GB inst/s"; "GB speedup"; "PB"; "PB speedup" ]
    (List.concat_map
       (fun s ->
         List.map
           (fun p ->
             if refused p.jobs then
               [ s.pattern; string_of_int p.jobs; "skipped"; "(single domain)"; "-"; "-"; "-" ]
             else
               [
                 s.pattern;
                 string_of_int p.jobs;
                 Table.fmt_ms p.gb_ms;
                 Printf.sprintf "%.0f" (per_s p.gb_instances p.gb_ms);
                 Printf.sprintf "%.2fx"
                   (speedup_vs_1 s.points p (fun q -> per_s q.gb_instances q.gb_ms));
                 Table.fmt_ms p.pb_ms;
                 Printf.sprintf "%.2fx"
                   (speedup_vs_1 s.points p (fun q -> per_s q.pb_instances q.pb_ms));
               ])
           s.points)
       r.sweeps)

let run_sweep record scale datasets =
  Printf.printf "Sweeping pattern search over job counts (%s) on %d domains...\n%!"
    (String.concat "/" (List.map string_of_int (job_counts ())))
    (Batch.recommended_jobs ());
  let results =
    List.map
      (fun d ->
        Printf.printf "  %s%!" d.Workload.spec.Tin_datasets.Spec.name;
        let r = sweep_dataset scale d in
        Printf.printf " ... done\n%!";
        r)
      datasets
  in
  print_newline ();
  List.iter
    (fun r ->
      sweep_table r;
      print_newline ())
    results;
  Record.write record ~name:"pattern" ~benchmark:"pattern_search"
    [ ("datasets", Tin_util.Json.Arr (List.map dataset_json results)) ]
