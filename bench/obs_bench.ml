(* Observability overhead guard.

   Every instrumentation site in the solvers and the pipeline reduces
   to a single [Atomic.get Obs.enabled] load when observability is off,
   so the disabled path must be free.  This benchmark keeps that claim
   honest in two ways:

   - it measures the disabled [Counter.incr] cost directly (ns/op) and
     multiplies by the number of counter operations a real solve
     workload performs (counted in a separate instrumented pass) to
     bound the injected overhead analytically;
   - it also times the workload with observability on vs off as a
     sanity cross-check (reported, not asserted: wall-clock deltas at
     this scale are noise-dominated).

   The analytic bound is asserted: the run fails if the estimated
   disabled-path overhead reaches 2%.  Each of its three timings (the
   per-op price, the per-span price and the baseline passes) is taken
   5 times and the minimum is used, the stable statistic on a shared
   host; the range is printed beside it.

   Since the flight recorder (armed by default) records spans even
   with tracing off, the bound now has a second term: span count times
   the measured cost of one flight-ring record.  The baseline workload
   is timed with the recorder disarmed — the strict zero-recording
   path the original guard protected.

   A third section assert-checks the trace analyzer on a real traced
   [Batch] run: stitching (single root, no orphans), chunk statistics,
   and per-domain utilization on multi-domain machines. *)

module Obs = Tin_obs.Obs
module Report = Tin_obs.Report
module Timer = Tin_util.Timer
module Json = Tin_util.Json
module Extract = Tin_datasets.Extract
module Lp_flow = Tin_core.Lp_flow
module Batch = Tin_core.Batch

let guard_pct = 2.0
let max_problems = 50
let timings = 5

(* Minimum and maximum of [timings] runs of [f]. *)
let min_max f =
  let xs = List.init timings (fun _ -> f ()) in
  (List.fold_left Float.min infinity xs, List.fold_left Float.max neg_infinity xs)

(* ns per disabled Counter.incr, measured over a long tight loop. *)
let disabled_incr_ns () =
  let c = Obs.Counter.make "bench.obs.disabled_probe" in
  for _ = 1 to 1_000 do
    Obs.Counter.incr c
  done;
  let n = 20_000_000 in
  min_max (fun () ->
      let (), secs =
        Timer.time_f (fun () ->
            for _ = 1 to n do
              Obs.Counter.incr c
            done)
      in
      secs *. 1e9 /. float_of_int n)

(* ns per span recorded into the flight ring alone (enabled off,
   recorder armed) — the cost the always-on black box adds to each
   instrumented region when nobody is tracing. *)
let flight_span_ns () =
  Obs.Flight.arm ();
  let f () = () in
  for _ = 1 to 1_000 do
    Obs.Span.with_ "bench.obs.flight_probe" f
  done;
  let n = 400_000 in
  let range =
    min_max (fun () ->
        let (), secs =
          Timer.time_f (fun () ->
              for _ = 1 to n do
                Obs.Span.with_ "bench.obs.flight_probe" f
              done)
        in
        secs *. 1e9 /. float_of_int n)
  in
  Obs.reset ();
  range

let solve_all problems =
  List.iter
    (fun (p : Extract.problem) ->
      ignore (Lp_flow.solve p.Extract.graph ~source:p.Extract.source ~sink:p.Extract.sink))
    problems

(* Trace a real multi-domain Batch run and assert the analyzer on it:
   one root, no orphans, a non-empty critical path, and chunk stats.
   This is the bench-side contract for [tinflow obs report]. *)
let check_report problems =
  (* Always 2 domains: chunk spans and cross-domain stitching are what
     is under test, and both only exist on the spawning path.  On a
     single-CPU machine the domains timeshare — fine for correctness,
     which is why the utilization floor below stays gated on real
     parallelism. *)
  let jobs = 2 in
  (* The whole run is the trace: size the span ring for it, as
     [tinflow --trace] does. *)
  Obs.reset ();
  Obs.Flight.set_capacity Obs.Flight.trace_capacity;
  Obs.enable ();
  Obs.Span.with_root "bench.obs.batch" (fun () ->
      ignore
        (Batch.max_flows ~jobs
           (List.map
              (fun (p : Extract.problem) ->
                { Batch.graph = p.Extract.graph;
                  source = p.Extract.source;
                  sink = p.Extract.sink;
                })
              problems)));
  let doc = Json.parse_exn (Obs.chrome_trace_json ()) in
  Obs.disable ();
  Obs.reset ();
  Obs.Flight.set_capacity Obs.Flight.default_capacity;
  match Report.analyze doc with
  | Error msg -> failwith ("obs report analysis failed: " ^ msg)
  | Ok r ->
      Printf.printf
        "  trace analysis: %d spans, roots=%d orphans=%d, critical path %.3f ms (%d spans)\n"
        r.Report.spans r.Report.roots r.Report.orphans
        (r.Report.critical_path_us /. 1_000.0)
        (List.length r.Report.critical_path);
      if r.Report.roots <> 1 then
        failwith (Printf.sprintf "traced batch run has %d roots, expected 1" r.Report.roots);
      if r.Report.orphans <> 0 then
        failwith
          (Printf.sprintf "traced batch run has %d orphan spans (broken stitching)"
             r.Report.orphans);
      if r.Report.critical_path = [] then failwith "empty critical path on traced batch run";
      (match r.Report.chunks with
      | None -> failwith "no batch chunk spans found in traced batch run"
      | Some c ->
          Printf.printf "  chunks: %d, imbalance %.2f across %d domain(s)\n" c.Report.c_count
            c.Report.c_imbalance
            (List.length c.Report.c_per_domain_us));
      if jobs > 1 && Domain.recommended_domain_count () > 1 then begin
        let mean_util =
          match r.Report.domains with
          | [] -> 0.0
          | ds ->
              List.fold_left (fun acc d -> acc +. d.Report.d_utilization) 0.0 ds
              /. float_of_int (List.length ds)
        in
        Printf.printf "  mean domain utilization: %.1f%%\n" (100.0 *. mean_util);
        if mean_util < 0.2 then
          failwith
            (Printf.sprintf "mean domain utilization %.2f below 0.20 floor" mean_util)
      end;
      (* The JSON report must parse and carry its schema marker — what
         CI diffs with bench-check. *)
      let rj = Json.parse_exn (Report.to_json r) in
      (match Json.member "schema" rj with
      | Some (Json.Str "tinflow.obs.report/v1") -> ()
      | _ -> failwith "obs report JSON missing schema tinflow.obs.report/v1");
      Printf.printf "  ok: trace analysis and report schema verified\n"

let run datasets =
  let problems =
    List.concat_map (fun d -> d.Workload.problems) datasets
    |> List.filteri (fun i _ -> i < max_problems)
  in
  if problems = [] then print_endline "obs: no extracted subgraphs to benchmark"
  else begin
    Printf.printf "Observability disabled-path overhead guard (%d subgraph LPs)\n%!"
      (List.length problems);
    let ((ns_per_op, _) as op_range) = disabled_incr_ns () in
    let ((ns_per_flight_span, _) as span_range) = flight_span_ns () in
    (* Time the workload on the strict zero path (recorder disarmed),
       as many passes as add up to 100 ms: one pass over these LPs
       takes a few milliseconds, too short to time.  The flight cost is
       then added back analytically from the measured per-span
       price. *)
    Obs.Flight.disarm ();
    solve_all problems;
    let reps = ref 0 and secs = ref 0.0 in
    while !secs < 0.1 do
      let (), dt = Timer.time_f (fun () -> solve_all problems) in
      incr reps;
      secs := !secs +. dt
    done;
    let reps = !reps in
    let ((disabled_secs, _) as baseline_range) =
      min_max (fun () ->
          snd
            (Timer.time_f (fun () ->
                 for _ = 1 to reps do
                   solve_all problems
                 done)))
    in
    Obs.Flight.arm ();
    (* Count the counter operations and spans the same passes perform. *)
    Obs.reset ();
    Obs.enable ();
    let (), enabled_secs =
      Timer.time_f (fun () ->
          for _ = 1 to reps do
            solve_all problems
          done)
    in
    Obs.disable ();
    let ops = List.fold_left (fun acc (_, v) -> acc + v) 0 (Obs.counters ()) in
    let spans = List.length (Obs.trace_events ()) + Obs.dropped_events () in
    Obs.reset ();
    let injected_secs =
      (float_of_int ops *. ns_per_op /. 1e9)
      +. (float_of_int spans *. ns_per_flight_span /. 1e9)
    in
    let overhead_pct = 100.0 *. injected_secs /. Float.max disabled_secs 1e-9 in
    let range unit scale (lo, hi) =
      Printf.sprintf "%.2f %s (min of %d timings, max %.2f)" (lo *. scale) unit timings
        (hi *. scale)
    in
    Printf.printf "  disabled Counter.incr:  %s\n" (range "ns/op" 1.0 op_range);
    Printf.printf "  flight span record:     %s\n" (range "ns/span" 1.0 span_range);
    Printf.printf "  workload: %d passes over the LPs\n" reps;
    Printf.printf "  counter ops in workload: %d, spans: %d\n" ops spans;
    Printf.printf "  workload wall disabled: %s\n" (range "ms" 1e3 baseline_range);
    Printf.printf "  workload wall enabled:  %.2f ms\n" (enabled_secs *. 1e3);
    Printf.printf "  estimated disabled-path overhead: %.4f%% (guard: < %g%%)\n" overhead_pct
      guard_pct;
    if overhead_pct >= guard_pct then
      failwith
        (Printf.sprintf "observability disabled-path overhead %.3f%% exceeds %g%% budget"
           overhead_pct guard_pct);
    Printf.printf "  ok: disabled-path overhead within budget\n";
    check_report problems
  end
