(* Bench-regression gate: flattening, direction heuristics, tolerance
   judgement, the Added/Removed soft-gate semantics and the header
   refusal; and the JSON printer the bench documents are written with,
   read back by the parser the gate uses. *)

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

let test_exact_metrics_regress_both_ways () =
  let base = {|{"pivots": 100}|} in
  List.iter
    (fun cur ->
      let rows = compare_str base cur in
      Alcotest.(check (option status)) ("deviation regresses: " ^ cur)
        (Some Regress.Regressed) (row_status rows "pivots"))
    [ {|{"pivots": 130}|}; {|{"pivots": 70}|} ];
  let rows = compare_str base {|{"pivots": 110}|} in
  Alcotest.(check (option status)) "within tolerance" (Some Regress.Ok_within)
    (row_status rows "pivots")

let test_tolerance_is_configurable () =
  let base = {|{"wall_ms": 100.0}|} and cur = {|{"wall_ms": 110.0}|} in
  let rows = compare_str ~tolerance_pct:5.0 base cur in
  Alcotest.(check (option status)) "tight tolerance catches +10%" (Some Regress.Regressed)
    (row_status rows "wall_ms");
  let rows = compare_str ~tolerance_pct:20.0 base cur in
  Alcotest.(check (option status)) "loose tolerance passes +10%" (Some Regress.Ok_within)
    (row_status rows "wall_ms")

let test_added_removed_are_informational () =
  let base = {|{"old_counter": 5, "shared_ms": 10.0}|} in
  let cur = {|{"new_counter": 7, "shared_ms": 10.0}|} in
  let rows = compare_str base cur in
  Alcotest.(check (option status)) "removed flagged" (Some Regress.Removed)
    (row_status rows "old_counter");
  Alcotest.(check (option status)) "added flagged" (Some Regress.Added)
    (row_status rows "new_counter");
  (* A renamed counter must not fail the soft gate. *)
  Alcotest.(check int) "not regressions" 0 (List.length (Regress.regressed rows))

let test_machine_facts_ignored () =
  let rows =
    compare_str {|{"domains_available": 8, "wall_ms": 10.0}|}
      {|{"domains_available": 128, "wall_ms": 10.0}|}
  in
  Alcotest.(check (option status)) "domains_available skipped" None
    (row_status rows "domains_available")

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

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

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
