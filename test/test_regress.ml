(* Bench-regression gate: flattening, direction heuristics, tolerance
   judgement of timings, equality of exact counts, the Added/Removed
   semantics and the header refusal; and the JSON printer the bench
   documents are written with, read back by the parser the gate uses. *)

module Json = Tin_util.Json
module Regress = Tin_util.Regress

let parse s =
  match Json.parse s with Ok v -> v | Error msg -> Alcotest.failf "bad test JSON: %s" msg

let row_status rows path =
  match List.find_opt (fun (r : Regress.row) -> r.Regress.path = path) rows with
  | Some r -> Some r.Regress.status
  | None -> None

let status = Alcotest.testable (Fmt.of_to_string Regress.status_name) ( = )

let compare_str ?tolerance_pct base cur =
  Regress.compare_docs ?tolerance_pct ~baseline:(parse base) ~current:(parse cur) ()

let test_identical_docs_clean () =
  let doc = {|{"a": {"wall_ms": 120.0, "iters": 400}, "speedup": 3.2}|} in
  let rows = compare_str doc doc in
  Alcotest.(check int) "all compared" 3 (List.length rows);
  Alcotest.(check (list status)) "all within tolerance"
    [ Regress.Ok_within; Regress.Ok_within; Regress.Ok_within ]
    (List.map (fun (r : Regress.row) -> r.Regress.status) rows);
  Alcotest.(check int) "no regressions" 0 (List.length (Regress.regressed rows))

let test_wall_clock_direction () =
  let base = {|{"run": {"wall_ms": 100.0}}|} in
  (* +30% on a _ms metric regresses ... *)
  let rows = compare_str base {|{"run": {"wall_ms": 130.0}}|} in
  Alcotest.(check (option status)) "slower regresses" (Some Regress.Regressed)
    (row_status rows "run.wall_ms");
  (* ... -30% improves ... *)
  let rows = compare_str base {|{"run": {"wall_ms": 70.0}}|} in
  Alcotest.(check (option status)) "faster improves" (Some Regress.Improved)
    (row_status rows "run.wall_ms");
  (* ... and +10% sits inside the default 15% tolerance. *)
  let rows = compare_str base {|{"run": {"wall_ms": 110.0}}|} in
  Alcotest.(check (option status)) "noise tolerated" (Some Regress.Ok_within)
    (row_status rows "run.wall_ms")

let test_throughput_direction () =
  let base = {|{"rate_per_s": 1000.0, "batch_speedup": 4.0}|} in
  let rows = compare_str base {|{"rate_per_s": 700.0, "batch_speedup": 5.2}|} in
  (* Lower throughput is a regression; higher speedup is an improvement. *)
  Alcotest.(check (option status)) "lower throughput regresses" (Some Regress.Regressed)
    (row_status rows "rate_per_s");
  Alcotest.(check (option status)) "higher speedup improves" (Some Regress.Improved)
    (row_status rows "batch_speedup")

(* An exact path passes only when equal: the tolerance is for timings,
   and a count that moves at all is a change of behaviour. *)
let test_exact_metrics_regress_both_ways () =
  let base = {|{"pivots": 100}|} in
  List.iter
    (fun (tolerance_pct, cur) ->
      let rows = compare_str ~tolerance_pct base cur in
      Alcotest.(check (option status))
        (Printf.sprintf "deviation drifts at %g%%: %s" tolerance_pct cur)
        (Some Regress.Drifted) (row_status rows "pivots"))
    [
      (15.0, {|{"pivots": 130}|}); (15.0, {|{"pivots": 70}|}); (15.0, {|{"pivots": 110}|});
      (50.0, {|{"pivots": 110}|}); (50.0, {|{"pivots": 100.5}|});
    ];
  let rows = compare_str ~tolerance_pct:50.0 base {|{"pivots": 110}|} in
  Alcotest.(check int) "a drift is no timing regression" 0 (List.length (Regress.regressed rows));
  Alcotest.(check int) "but is a drift" 1 (List.length (Regress.drifted rows));
  let rows = compare_str ~tolerance_pct:0.0 base base in
  Alcotest.(check (option status)) "equal passes" (Some Regress.Ok_within)
    (row_status rows "pivots")

let test_tolerance_is_configurable () =
  let base = {|{"wall_ms": 100.0}|} and cur = {|{"wall_ms": 110.0}|} in
  let rows = compare_str ~tolerance_pct:5.0 base cur in
  Alcotest.(check (option status)) "tight tolerance catches +10%" (Some Regress.Regressed)
    (row_status rows "wall_ms");
  let rows = compare_str ~tolerance_pct:20.0 base cur in
  Alcotest.(check (option status)) "loose tolerance passes +10%" (Some Regress.Ok_within)
    (row_status rows "wall_ms")

(* New coverage is not a regression, and neither is a timing that is
   no longer measured; a count that vanished is a drift, like a
   scenario the gate can no longer see. *)
let test_added_removed_are_informational () =
  let base = {|{"old_counter": 5, "old_ms": 3.0, "shared_ms": 10.0}|} in
  let cur = {|{"new_counter": 7, "new_ms": 4.0, "shared_ms": 10.0}|} in
  let rows = compare_str ~tolerance_pct:50.0 base cur in
  Alcotest.(check (option status)) "removed timing informational" (Some Regress.Removed)
    (row_status rows "old_ms");
  Alcotest.(check (option status)) "added count informational" (Some Regress.Added)
    (row_status rows "new_counter");
  Alcotest.(check (option status)) "added timing informational" (Some Regress.Added)
    (row_status rows "new_ms");
  Alcotest.(check (option status)) "removed count drifts" (Some Regress.Drifted)
    (row_status rows "old_counter");
  Alcotest.(check int) "not regressions" 0 (List.length (Regress.regressed rows));
  Alcotest.(check (list string)) "only the removed count drifts" [ "old_counter" ]
    (List.map (fun (r : Regress.row) -> r.Regress.path) (Regress.drifted rows))

(* Facts of the machine, and of the schedule in a [tinflow obs report
   --json] document: a domain's id and its share of the span total
   are skipped.  The report's utilization is higher-better and its
   imbalance lower-better, so two schedules of the same work differ
   only in directional paths. *)
let test_machine_facts_ignored () =
  let rows =
    compare_str {|{"domains_available": 8, "wall_ms": 10.0}|}
      {|{"domains_available": 128, "wall_ms": 10.0}|}
  in
  Alcotest.(check (option status)) "domains_available skipped" None
    (row_status rows "domains_available");
  let report ?(total = 40) ~spans0 ~util1 ~mean ~imbalance ~cp_tid () =
    Printf.sprintf
      {|{"schema": "tinflow.obs.report/v1",
         "trace": {"spans": %d, "dropped": 0, "wall_ms": 9.0, "roots": 1, "orphans": 0},
         "critical_path": [{"name": "batch", "tid": %d, "dur_ms": 9.0, "self_ms": 1.0}],
         "domains": [{"tid": 0, "spans": %d, "busy_ms": 8.0, "utilization": 0.9},
                     {"tid": 1, "spans": %d, "busy_ms": 6.0, "utilization": %g}],
         "utilization": {"domains": 2, "mean": %g},
         "chunks": {"count": 12, "mean_ms": 1.0, "imbalance": %g},
         "self_times": [{"name": "lp.solve", "count": 30, "self_ms": 4.0}]}|}
      total cp_tid spans0 (total - spans0) util1 mean imbalance
  in
  let base = report ~spans0:22 ~util1:0.6 ~mean:0.75 ~imbalance:1.2 ~cp_tid:0 () in
  let self = compare_str base base in
  Alcotest.(check int) "self-diff compares all but the skipped" 18 (List.length self);
  Alcotest.(check bool) "self-diff clean" true
    (List.for_all (fun (r : Regress.row) -> r.Regress.status = Regress.Ok_within) self);
  List.iter
    (fun p -> Alcotest.(check (option status)) (p ^ " skipped") None (row_status self p))
    [ "critical_path.batch.tid"; "domains.0.tid"; "domains.0.spans"; "domains.1.spans" ];
  (* Another schedule: spans move between domains, the critical path
     ends on the other domain, utilization drops and imbalance grows. *)
  let rows =
    compare_str base (report ~spans0:17 ~util1:0.3 ~mean:0.6 ~imbalance:1.5 ~cp_tid:1 ())
  in
  Alcotest.(check int) "another schedule does not drift" 0 (List.length (Regress.drifted rows));
  List.iter
    (fun p -> Alcotest.(check (option status)) (p ^ " regresses") (Some Regress.Regressed)
        (row_status rows p))
    [ "domains.1.utilization"; "utilization.mean"; "chunks.imbalance" ];
  let rows =
    compare_str base (report ~spans0:22 ~util1:0.9 ~mean:0.9 ~imbalance:1.0 ~cp_tid:0 ())
  in
  List.iter
    (fun p -> Alcotest.(check (option status)) (p ^ " improves") (Some Regress.Improved)
        (row_status rows p))
    [ "domains.1.utilization"; "utilization.mean"; "chunks.imbalance" ];
  (* The span total itself is exact. *)
  let rows =
    compare_str base (report ~total:41 ~spans0:22 ~util1:0.6 ~mean:0.75 ~imbalance:1.2 ~cp_tid:0 ())
  in
  Alcotest.(check (option status)) "span total exact" (Some Regress.Drifted)
    (row_status rows "trace.spans")

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* A [tinflow obs report --json] document lists every span name, not
   only the [--top] heaviest: a name that falls from 2nd to 12th
   between two schedules of the same work is still compared, and its
   count, a deterministic total, still matches.  Only the human table
   stops at [top]. *)
let test_report_lists_every_span_name () =
  let module Report = Tin_obs.Report in
  (* A root span and eleven children on one domain: [k01 .. k10] last
     20 .. 29 us, [k00] lasts [k00_us]. *)
  let report ~k00_us =
    let span ~name ~id ~parent ~ts ~dur =
      Printf.sprintf
        {|{"ph": "X", "name": "%s", "ts": %d, "dur": %d, "tid": 0,
           "args": {"trace_id": "t", "span_id": "%s", "parent_id": "%s"}}|}
        name ts dur id parent
    in
    let kids =
      List.init 11 (fun i ->
          span ~name:(Printf.sprintf "k%02d" i) ~id:(Printf.sprintf "s%d" i) ~parent:"root"
            ~ts:(100 * i) ~dur:(if i = 0 then k00_us else 19 + i))
    in
    let root = span ~name:"root" ~id:"root" ~parent:"" ~ts:0 ~dur:5000 in
    let doc = Printf.sprintf {|{"traceEvents": [%s]}|} (String.concat ", " (root :: kids)) in
    match Report.analyze (parse doc) with
    | Ok r -> r
    | Error msg -> Alcotest.failf "report refused the trace: %s" msg
  in
  let heavy = report ~k00_us:30 and light = report ~k00_us:5 in
  Alcotest.(check int) "every name listed" 12 (List.length light.Report.self_times);
  Alcotest.(check bool) "k00 in the heavy table" true
    (contains ~sub:"k00" (Report.render ~top:10 heavy));
  Alcotest.(check bool) "k00 out of the light table" false
    (contains ~sub:"k00" (Report.render ~top:10 light));
  let rows = compare_str (Report.to_json heavy) (Report.to_json light) in
  Alcotest.(check int) "no drift" 0 (List.length (Regress.drifted rows));
  Alcotest.(check (option status)) "k00 count still compared" (Some Regress.Ok_within)
    (row_status rows "self_times.k00.count")

let test_array_elements_keyed_by_name () =
  (* Reordering a named array must not shift every other metric. *)
  let base =
    {|{"jobs": [{"name": "a", "wall_ms": 10.0}, {"name": "b", "wall_ms": 50.0}]}|}
  in
  let cur =
    {|{"jobs": [{"name": "b", "wall_ms": 50.0}, {"name": "a", "wall_ms": 10.0}]}|}
  in
  let rows = compare_str base cur in
  Alcotest.(check int) "reorder is invisible" 0 (List.length (Regress.regressed rows));
  List.iter
    (fun (r : Regress.row) ->
      Alcotest.(check status) ("stable: " ^ r.Regress.path) Regress.Ok_within r.Regress.status)
    rows

let test_header_mismatch () =
  let mismatch base cur = Regress.header_mismatch ~baseline:(parse base) ~current:(parse cur) in
  Alcotest.(check (option string)) "same header" None
    (mismatch {|{"benchmark": "load", "scale": "quick", "wall_ms": 1}|}
       {|{"benchmark": "load", "scale": "quick", "wall_ms": 2}|});
  Alcotest.(check (option string)) "no header, like an obs report" None
    (mismatch {|{"schema": "tinflow.obs.report/v1"}|} {|{"schema": "tinflow.obs.report/v1"}|});
  Alcotest.(check (option string)) "scale differs"
    (Some {|scale differs: baseline "full", current "quick"|})
    (mismatch {|{"benchmark": "load", "scale": "full"}|}
       {|{"benchmark": "load", "scale": "quick"}|});
  Alcotest.(check (option string)) "benchmark differs"
    (Some {|benchmark differs: baseline "load", current "ingest"|})
    (mismatch {|{"benchmark": "load"}|} {|{"benchmark": "ingest"}|});
  Alcotest.(check (option string)) "present on one side only"
    (Some {|scale differs: baseline "full", current absent|})
    (mismatch {|{"scale": "full"}|} {|{}|})

let test_flatten_paths () =
  let doc = parse {|{"a": {"b": [{"name": "x", "v": 1.5}, 2.0]}, "skip": "text"}|} in
  Alcotest.(check (list (pair string (float 1e-9))))
    "dotted paths, strings skipped"
    [ ("a.b.x.v", 1.5); ("a.b.1", 2.0) ]
    (Regress.flatten doc)

let test_render_table_mentions_deviations () =
  let rows = compare_str {|{"wall_ms": 100.0, "iters": 7}|} {|{"wall_ms": 200.0, "iters": 7}|} in
  let table = Regress.render_table ~title:"t" rows in
  Alcotest.(check bool) "regressed metric named" true
    (contains ~sub:"wall_ms" table);
  Alcotest.(check bool) "status shown" true
    (contains ~sub:"REGRESSED" table);
  let clean = compare_str {|{"iters": 7}|} {|{"iters": 7}|} in
  Alcotest.(check bool) "clean run says so" true
    (contains ~sub:"within tolerance" (Regress.render_table clean))

(* --- the printer ---------------------------------------------------- *)

let gen_str =
  QCheck.Gen.(
    map (String.concat "")
      (list_size (0 -- 6)
         (oneofl
            [ "\""; "\\"; "/"; "\n"; "\t"; "\r"; "\x00"; "\x1f"; "\x7f"; "a"; "Z"; " "; "0";
              "\xc2\xb5"; "\xc3\xa9"; "\xe6\x97\xa5"; "\xf0\x9f\x92\xa1" ])))

(* Integers, fractions, magnitudes from 1e-300 to 1e300 and -0. *)
let gen_num =
  QCheck.Gen.(
    oneof
      [
        map float_of_int (int_range (-1_000_000) 1_000_000);
        float_range (-1.0) 1.0;
        map3
          (fun neg m e -> (if neg then -.m else m) *. (10.0 ** float_of_int e))
          bool (float_range 1.0 10.0) (int_range (-300) 299);
        oneofl [ -0.0; 0.1; 1e-300; 1e300; Float.max_float; Float.min_float; 4.47266123456e6 ];
      ])

let gen_json =
  QCheck.Gen.(
    sized
    @@ fix (fun self n ->
           let leaf =
             frequency
               [
                 (1, return Json.Null);
                 (1, map (fun b -> Json.Bool b) bool);
                 (4, map (fun f -> Json.Num f) gen_num);
                 (3, map (fun s -> Json.Str s) gen_str);
               ]
           in
           if n <= 0 then leaf
           else
             frequency
               [
                 (2, leaf);
                 (1, map (fun l -> Json.Arr l) (list_size (0 -- 4) (self (n / 4))));
                 (1, map (fun l -> Json.Obj l) (list_size (0 -- 4) (pair gen_str (self (n / 4)))));
               ]))

let prop_print_parse_roundtrip =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:500 ~name:"parse (to_string v) = Ok v, both layouts"
       (QCheck.make ~print:(Json.to_string Json.Compact) gen_json)
       (fun v ->
         List.for_all
           (fun layout -> Json.parse (Json.to_string layout v) = Ok v)
           [ Json.Compact; Json.Indented ]))

let test_numbers () =
  let print f = Json.to_string Json.Compact (Json.Num f) in
  List.iter
    (fun (f, want) -> Alcotest.(check string) want want (print f))
    [
      (2.0, "2"); (-0.0, "-0"); (0.1, "0.1"); (1e300, "1e+300"); (4472661.23456, "4472661.23456");
      (nan, "null"); (infinity, "null"); (neg_infinity, "null");
    ];
  (* A value %.6g would round to 4.47266e+06 prints every digit. *)
  Alcotest.(check bool) "exact" true (Float.equal (float_of_string (print 4472661.5)) 4472661.5)

let sample =
  Json.Obj
    [
      ("name", Json.Str "a b");
      ( "rows",
        Json.Arr
          [
            Json.Obj [ ("jobs", Json.int 1); ("ms", Json.Num 2.5) ];
            Json.Obj [ ("jobs", Json.int 2); ("skipped", Json.Str "single_domain") ];
          ] );
      ("obs", Json.Obj [ ("n", Json.int 3); ("none", Json.Null); ("ok", Json.Bool true) ]);
      ("empty", Json.Arr []);
    ]

let test_compact_layout () =
  Alcotest.(check string) "no whitespace outside strings"
    {|{"name":"a b","rows":[{"jobs":1,"ms":2.5},{"jobs":2,"skipped":"single_domain"}],"obs":{"n":3,"none":null,"ok":true},"empty":[]}|}
    (Json.to_string Json.Compact sample)

let test_indented_layout () =
  Alcotest.(check string) "one non-scalar member per line"
    {|{
  "name": "a b",
  "rows": [
    {"jobs": 1, "ms": 2.5},
    {"jobs": 2, "skipped": "single_domain"}
  ],
  "obs": {"n": 3, "none": null, "ok": true},
  "empty": []
}
|}
    (Json.to_string Json.Indented sample)

let () =
  Alcotest.run "regress"
    [
      ( "compare",
        [
          Alcotest.test_case "identical docs clean" `Quick test_identical_docs_clean;
          Alcotest.test_case "wall-clock direction" `Quick test_wall_clock_direction;
          Alcotest.test_case "throughput direction" `Quick test_throughput_direction;
          Alcotest.test_case "exact metrics" `Quick test_exact_metrics_regress_both_ways;
          Alcotest.test_case "tolerance knob" `Quick test_tolerance_is_configurable;
          Alcotest.test_case "added/removed informational" `Quick
            test_added_removed_are_informational;
          Alcotest.test_case "machine facts ignored" `Quick test_machine_facts_ignored;
          Alcotest.test_case "report lists every span name" `Quick
            test_report_lists_every_span_name;
          Alcotest.test_case "named array keying" `Quick test_array_elements_keyed_by_name;
          Alcotest.test_case "header mismatch" `Quick test_header_mismatch;
        ] );
      ( "render",
        [
          Alcotest.test_case "flatten paths" `Quick test_flatten_paths;
          Alcotest.test_case "table mentions deviations" `Quick
            test_render_table_mentions_deviations;
        ] );
      ( "json",
        [
          prop_print_parse_roundtrip;
          Alcotest.test_case "numbers" `Quick test_numbers;
          Alcotest.test_case "compact layout" `Quick test_compact_layout;
          Alcotest.test_case "indented layout" `Quick test_indented_layout;
        ] );
    ]
