(* Benchmark harness: regenerates every table and figure of the
   paper's evaluation (Section 6) on the synthetic datasets.

   Usage:
     main.exe [--quick] [--out-dir DIR] [target ...]
   Targets: table4 table5 table6 table7 table8 figure11 table9 table10
   table11 flows patterns micro ablation sweep solvers obs load ingest
   provenance all (default: all).
   Five targets also write their machine-readable results into DIR
   (default: the current directory): solvers -> BENCH_flow.json,
   patterns -> BENCH_pattern.json (the jobs sweep), load ->
   BENCH_load.json, ingest -> BENCH_ingest.json and provenance ->
   BENCH_provenance.json. *)

let known_targets =
  [
    "table4"; "table5"; "table6"; "table7"; "table8"; "figure11"; "table9"; "table10"; "table11";
    "flows"; "patterns"; "micro"; "ablation"; "sweep"; "solvers"; "obs"; "load"; "ingest";
    "provenance"; "all";
  ]

let usage () =
  Printf.printf "usage: main.exe [--quick] [--out-dir DIR] [%s]*\n"
    (String.concat "|" known_targets);
  exit 2

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let quick = List.mem "--quick" args in
  let out_dir = ref "." in
  let rec strip = function
    | "--out-dir" :: dir :: rest ->
        out_dir := dir;
        strip rest
    | [ "--out-dir" ] -> usage ()
    | a :: rest -> a :: strip rest
    | [] -> []
  in
  let args = strip args in
  let targets = List.filter (fun a -> a <> "--quick") args in
  let targets = if targets = [] then [ "all" ] else targets in
  List.iter
    (fun t ->
      if not (List.mem t known_targets) then begin
        Printf.printf "unknown target: %s\n" t;
        usage ()
      end)
    targets;
  let wants t =
    List.mem t targets || List.mem "all" targets
    || (List.mem "flows" targets
       && List.mem t [ "table4"; "table5"; "table6"; "table7"; "table8"; "figure11" ])
    || (List.mem "patterns" targets && List.mem t [ "table9"; "table10"; "table11" ])
  in
  let scale = if quick then Workload.quick else Workload.full in
  let record = { Record.out_dir = !out_dir; scale = (if quick then "quick" else "full") } in
  Printf.printf
    "Flow Computation in Temporal Interaction Networks -- experiment harness (%s scale)\n\n"
    record.Record.scale;
  Printf.printf "Generating datasets and extracting subgraphs...\n%!";
  let datasets, gen_secs = Tin_util.Timer.time_f (fun () -> Workload.load scale) in
  Printf.printf "  done in %.1fs\n\n%!" gen_secs;
  if wants "table4" then begin
    Flow_bench.table4 datasets;
    print_newline ()
  end;
  if wants "table5" then begin
    Flow_bench.table5 datasets;
    print_newline ()
  end;
  let flow_tables = [ ("table6", 6); ("table7", 7); ("table8", 8) ] in
  let need_measure =
    wants "figure11" || List.exists (fun (t, _) -> wants t) flow_tables
  in
  if need_measure then begin
    Printf.printf "Measuring flow-computation methods on every subgraph...\n%!";
    let measured =
      List.filter_map
        (fun (t, table_id) ->
          if wants t || wants "figure11" then begin
            let d = List.find (fun d -> d.Workload.table_id = table_id) datasets in
            Some (t, d, Flow_bench.measure_dataset d)
          end
          else None)
        flow_tables
    in
    print_newline ();
    List.iter (fun (t, d, m) -> if wants t then Flow_bench.flow_table d m) measured;
    if wants "figure11" then
      List.iter
        (fun (_, d, m) ->
          Flow_bench.figure11 d m;
          print_newline ())
        measured
  end;
  List.iter
    (fun (t, table_id) ->
      if wants t then
        Pattern_bench.run_dataset scale
          (List.find (fun d -> d.Workload.pattern_table_id = table_id) datasets))
    [ ("table9", 9); ("table10", 10); ("table11", 11) ];
  if wants "patterns" then begin
    Pattern_bench.run_sweep record scale datasets;
    print_newline ()
  end;
  if wants "ablation" then Ablation.run datasets;
  if wants "sweep" then Sweep.run ();
  if wants "solvers" then begin
    Solver_bench.run record datasets;
    print_newline ()
  end;
  if wants "obs" then begin
    Obs_bench.run datasets;
    print_newline ()
  end;
  if wants "load" then begin
    Load_bench.run record datasets;
    print_newline ()
  end;
  if wants "ingest" then begin
    Ingest_bench.run record ~quick;
    print_newline ()
  end;
  if wants "provenance" then begin
    Provenance_bench.run record ~quick;
    print_newline ()
  end;
  if wants "micro" || List.mem "all" targets then Micro.run datasets;
  print_endline "Done."
