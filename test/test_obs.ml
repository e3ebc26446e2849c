(* Observability substrate: counter exactness across domains, span
   nesting, disabled-path invisibility, and the Chrome-trace / metrics
   JSON exporters (schema-checked with a minimal JSON reader — the
   repo deliberately has no JSON dependency). *)

module Obs = Tin_obs.Obs
module Batch = Tin_core.Batch

let with_enabled f =
  Obs.reset ();
  Obs.enable ();
  Fun.protect
    ~finally:(fun () ->
      Obs.disable ();
      Obs.reset ())
    f

(* --- minimal JSON reader (tests only) ------------------------------ *)

module Json = struct
  type t =
    | Null
    | Bool of bool
    | Num of float
    | Str of string
    | Arr of t list
    | Obj of (string * t) list

  exception Bad of string

  let parse (s : string) : t =
    let n = String.length s in
    let pos = ref 0 in
    let peek () = if !pos < n then Some s.[!pos] else None in
    let fail msg = raise (Bad (Printf.sprintf "%s at byte %d" msg !pos)) in
    let rec skip_ws () =
      match peek () with
      | Some (' ' | '\n' | '\t' | '\r') ->
          incr pos;
          skip_ws ()
      | _ -> ()
    in
    let expect c =
      if !pos < n && s.[!pos] = c then incr pos else fail (Printf.sprintf "expected '%c'" c)
    in
    let literal lit v =
      let k = String.length lit in
      if !pos + k <= n && String.sub s !pos k = lit then begin
        pos := !pos + k;
        v
      end
      else fail ("expected " ^ lit)
    in
    let string_lit () =
      expect '"';
      let b = Buffer.create 16 in
      let rec go () =
        if !pos >= n then fail "unterminated string";
        match s.[!pos] with
        | '"' -> incr pos
        | '\\' ->
            incr pos;
            if !pos >= n then fail "bad escape";
            (match s.[!pos] with
            | '"' -> Buffer.add_char b '"'
            | '\\' -> Buffer.add_char b '\\'
            | '/' -> Buffer.add_char b '/'
            | 'n' -> Buffer.add_char b '\n'
            | 't' -> Buffer.add_char b '\t'
            | 'r' -> Buffer.add_char b '\r'
            | 'b' -> Buffer.add_char b '\b'
            | 'f' -> Buffer.add_char b '\012'
            | 'u' ->
                (* Decode to UTF-8 so escaped names round-trip exactly
                   (the exporters escape control characters as \u00XX). *)
                if !pos + 4 >= n then fail "bad unicode escape";
                let hex c =
                  match c with
                  | '0' .. '9' -> Char.code c - Char.code '0'
                  | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
                  | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
                  | _ -> fail "bad unicode escape"
                in
                let cp =
                  (hex s.[!pos + 1] lsl 12)
                  lor (hex s.[!pos + 2] lsl 8)
                  lor (hex s.[!pos + 3] lsl 4)
                  lor hex s.[!pos + 4]
                in
                if cp >= 0xD800 && cp <= 0xDFFF then fail "surrogate escape"
                else if cp < 0x80 then Buffer.add_char b (Char.chr cp)
                else if cp < 0x800 then begin
                  Buffer.add_char b (Char.chr (0xC0 lor (cp lsr 6)));
                  Buffer.add_char b (Char.chr (0x80 lor (cp land 0x3F)))
                end
                else begin
                  Buffer.add_char b (Char.chr (0xE0 lor (cp lsr 12)));
                  Buffer.add_char b (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
                  Buffer.add_char b (Char.chr (0x80 lor (cp land 0x3F)))
                end;
                pos := !pos + 4
            | _ -> fail "bad escape");
            incr pos;
            go ()
        | c ->
            Buffer.add_char b c;
            incr pos;
            go ()
      in
      go ();
      Buffer.contents b
    in
    let number () =
      let start = !pos in
      let is_num c =
        (c >= '0' && c <= '9') || c = '-' || c = '+' || c = '.' || c = 'e' || c = 'E'
      in
      while !pos < n && is_num s.[!pos] do
        incr pos
      done;
      if !pos = start then fail "expected a number";
      match float_of_string_opt (String.sub s start (!pos - start)) with
      | Some f -> f
      | None -> fail "malformed number"
    in
    let rec value () =
      skip_ws ();
      match peek () with
      | Some '{' ->
          incr pos;
          skip_ws ();
          if peek () = Some '}' then begin
            incr pos;
            Obj []
          end
          else
            let rec fields acc =
              skip_ws ();
              let k = string_lit () in
              skip_ws ();
              expect ':';
              let v = value () in
              skip_ws ();
              match peek () with
              | Some ',' ->
                  incr pos;
                  fields ((k, v) :: acc)
              | Some '}' ->
                  incr pos;
                  List.rev ((k, v) :: acc)
              | _ -> fail "expected ',' or '}'"
            in
            Obj (fields [])
      | Some '[' ->
          incr pos;
          skip_ws ();
          if peek () = Some ']' then begin
            incr pos;
            Arr []
          end
          else
            let rec elems acc =
              let v = value () in
              skip_ws ();
              match peek () with
              | Some ',' ->
                  incr pos;
                  elems (v :: acc)
              | Some ']' ->
                  incr pos;
                  List.rev (v :: acc)
              | _ -> fail "expected ',' or ']'"
            in
            Arr (elems [])
      | Some '"' -> Str (string_lit ())
      | Some 't' -> literal "true" (Bool true)
      | Some 'f' -> literal "false" (Bool false)
      | Some 'n' -> literal "null" Null
      | Some _ -> Num (number ())
      | None -> fail "unexpected end of input"
    in
    let v = value () in
    skip_ws ();
    if !pos <> n then fail "trailing garbage";
    v

  let mem k = function Obj kvs -> List.assoc_opt k kvs | _ -> None

  let str = function Str s -> Some s | _ -> None

  let num = function Num f -> Some f | _ -> None
end

(* --- counters ------------------------------------------------------ *)

let names evs = List.map (fun (e : Obs.event) -> e.Obs.name) evs

(* Metrics off: counters and histograms record nothing.  The span
   still lands in the flight ring, armed by default; "disarmed records
   nothing" covers the strict zero path. *)
let test_disabled_is_invisible () =
  Obs.reset ();
  Alcotest.(check bool) "disabled by default here" false (Obs.tracking ());
  let c = Obs.Counter.make "test.disabled.counter" in
  let h = Obs.Histogram.make "test.disabled.histogram" in
  Obs.Counter.incr c;
  Obs.Counter.add c 41;
  Obs.Histogram.observe h 3.0;
  let r = Obs.Span.with_ "test.disabled.span" ~args:[ ("k", "v") ] (fun () -> 7) in
  Alcotest.(check int) "span still runs the body" 7 r;
  Alcotest.(check int) "counter stays at zero" 0 (Obs.Counter.value c);
  Alcotest.(check int) "histogram records nothing" 0 (Obs.Histogram.summary h).Tin_util.Stats.count;
  Alcotest.(check (list string)) "span kept by the armed ring" [ "test.disabled.span" ]
    (names (Obs.trace_events ()));
  Obs.reset ()

let test_counter_basics () =
  with_enabled (fun () ->
      let c = Obs.Counter.make "test.basics.counter" in
      Obs.Counter.incr c;
      Obs.Counter.add c 10;
      Alcotest.(check int) "value merges" 11 (Obs.Counter.value c);
      Alcotest.(check string) "name" "test.basics.counter" (Obs.Counter.name c);
      (* Same name, same counter — make is a registry lookup. *)
      let c' = Obs.Counter.make "test.basics.counter" in
      Obs.Counter.incr c';
      Alcotest.(check int) "shared identity" 12 (Obs.Counter.value c);
      Alcotest.(check bool) "listed" true
        (List.mem_assoc "test.basics.counter" (Obs.counters ()));
      Alcotest.check_raises "kind clash rejected"
        (Invalid_argument "Obs: metric name registered with another kind: test.basics.counter")
        (fun () -> ignore (Obs.Histogram.make "test.basics.counter"));
      Obs.reset ();
      Alcotest.(check int) "reset zeroes in place" 0 (Obs.Counter.value c))

let test_histogram_summary () =
  with_enabled (fun () ->
      let h = Obs.Histogram.make "test.hist" in
      List.iter (Obs.Histogram.observe h) [ 1.0; 2.0; 3.0; 4.0 ];
      let s = Obs.Histogram.summary h in
      Alcotest.(check int) "count" 4 s.Tin_util.Stats.count;
      Alcotest.(check (float 1e-9)) "mean" 2.5 s.Tin_util.Stats.mean;
      Alcotest.(check (float 1e-9)) "min" 1.0 s.Tin_util.Stats.min;
      Alcotest.(check (float 1e-9)) "max" 4.0 s.Tin_util.Stats.max)

(* Counters must be exact — not approximate — under parallel recording:
   every domain writes its own shard, merged on read. *)
let prop_parallel_counter_exact =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:25 ~name:"counters exact under Batch.map_reduce jobs>1"
       QCheck.(pair (int_bound 400) (int_range 2 6))
       (fun (n, jobs) ->
         with_enabled (fun () ->
             let items = Obs.Counter.make "test.mr.items" in
             let weight = Obs.Counter.make "test.mr.weight" in
             let acc =
               Batch.map_reduce ~jobs ~chunk:3 ~n
                 ~init:(fun () -> ref 0)
                 ~body:(fun acc i ->
                   Obs.Counter.incr items;
                   Obs.Counter.add weight i;
                   acc := !acc + i)
                 ~merge:(fun a b -> ref (!a + !b))
                 ()
             in
             let expected_weight = n * (n - 1) / 2 in
             !acc = expected_weight
             && Obs.Counter.value items = n
             && Obs.Counter.value weight = expected_weight)))

let test_counter_negative_add () =
  Obs.reset ();
  let c = Obs.Counter.make "test.negative.counter" in
  let expect_raise () =
    Alcotest.check_raises "negative increment rejected"
      (Invalid_argument "Obs.Counter.add: negative increment on a monotone counter") (fun () ->
        Obs.Counter.add c (-1))
  in
  (* The monotonicity guard fires even while recording is disabled:
     a call-site bug must not hide behind the off switch. *)
  expect_raise ();
  with_enabled (fun () ->
      expect_raise ();
      Obs.Counter.add c 0;
      Alcotest.(check int) "zero is a no-op" 0 (Obs.Counter.value c))

(* --- gauges -------------------------------------------------------- *)

let test_gauge_basics () =
  with_enabled (fun () ->
      let g = Obs.Gauge.make "test.gauge.basics" in
      Alcotest.(check bool) "unset reads NaN" true (Float.is_nan (Obs.Gauge.value g));
      Obs.Gauge.set g 4.0;
      Alcotest.(check (float 1e-9)) "set" 4.0 (Obs.Gauge.value g);
      Obs.Gauge.set g 2.0;
      Alcotest.(check (float 1e-9)) "last write wins" 2.0 (Obs.Gauge.value g);
      Alcotest.(check string) "name" "test.gauge.basics" (Obs.Gauge.name g);
      Alcotest.(check bool) "listed" true (List.mem_assoc "test.gauge.basics" (Obs.gauges ()));
      Obs.reset ();
      Alcotest.(check bool) "reset unsets" true (Float.is_nan (Obs.Gauge.value g)))

let test_gauge_last_write_wins_across_domains () =
  with_enabled (fun () ->
      let g = Obs.Gauge.make "test.gauge.domains" in
      Obs.Gauge.set g 1.0;
      (* Each write lands in the writing domain's own cell; the read
         must still pick the chronologically freshest one. *)
      Domain.join (Domain.spawn (fun () -> Obs.Gauge.set g 7.0));
      Alcotest.(check (float 1e-9)) "another domain's later set wins" 7.0 (Obs.Gauge.value g);
      Obs.Gauge.set g 3.0;
      Alcotest.(check (float 1e-9)) "original domain reclaims" 3.0 (Obs.Gauge.value g))

(* --- labeled families ---------------------------------------------- *)

let test_labeled_families () =
  with_enabled (fun () ->
      let fam = Obs.Counter.make_labeled "test.fam.ops" ~labels:[ "solver" ] in
      let a = Obs.Counter.labeled fam [ "a" ] in
      let b = Obs.Counter.labeled fam [ "b" ] in
      Obs.Counter.incr a;
      Obs.Counter.add b 2;
      Alcotest.(check string) "member name encodes labels" "test.fam.ops{solver=\"a\"}"
        (Obs.Counter.name a);
      Alcotest.(check int) "members are independent" 1 (Obs.Counter.value a);
      Alcotest.(check int) "members are independent (b)" 2 (Obs.Counter.value b);
      (* Same label values, same member. *)
      Obs.Counter.incr (Obs.Counter.labeled fam [ "a" ]);
      Alcotest.(check int) "shared identity" 2 (Obs.Counter.value a);
      (* Re-registration with the same schema is fine ... *)
      ignore (Obs.Counter.make_labeled "test.fam.ops" ~labels:[ "solver" ]);
      (* ... with another schema or arity it is not. *)
      Alcotest.check_raises "schema clash"
        (Invalid_argument "Obs: family registered with different labels: test.fam.ops")
        (fun () -> ignore (Obs.Counter.make_labeled "test.fam.ops" ~labels:[ "other" ]));
      Alcotest.check_raises "arity mismatch"
        (Invalid_argument "Obs: family test.fam.ops expects 1 label value(s), got 2") (fun () ->
          ignore (Obs.Counter.labeled fam [ "a"; "b" ]));
      Alcotest.check_raises "empty label schema"
        (Invalid_argument "Obs: labeled family needs at least one label: test.fam.empty")
        (fun () -> ignore (Obs.Counter.make_labeled "test.fam.empty" ~labels:[]));
      (* A counter member with the same encoded name as an existing
         histogram member is a kind clash, like unlabeled metrics. *)
      let hfam = Obs.Histogram.make_labeled "test.fam.h" ~labels:[ "k" ] in
      Obs.Histogram.observe (Obs.Histogram.labeled hfam [ "x" ]) 1.0;
      let cfam = Obs.Counter.make_labeled "test.fam.h" ~labels:[ "k" ] in
      Alcotest.check_raises "kind clash on member"
        (Invalid_argument "Obs: metric name registered with another kind: test.fam.h{k=\"x\"}")
        (fun () -> ignore (Obs.Counter.labeled cfam [ "x" ])))

(* --- spans --------------------------------------------------------- *)

let test_spans_nest () =
  with_enabled (fun () ->
      let r =
        Obs.Span.with_ "outer" (fun () ->
            let x = Obs.Span.with_ "inner" ~args:[ ("k", "v") ] (fun () -> 41) in
            x + 1)
      in
      Alcotest.(check int) "body result" 42 r;
      match Obs.trace_events () with
      | [ a; b ] ->
          (* Sorted by start time: outer opened first. *)
          Alcotest.(check string) "outer first" "outer" a.Obs.name;
          Alcotest.(check string) "inner second" "inner" b.Obs.name;
          let ends (e : Obs.event) = Int64.add e.Obs.ts_ns e.Obs.dur_ns in
          Alcotest.(check bool) "inner starts inside outer" true (b.Obs.ts_ns >= a.Obs.ts_ns);
          Alcotest.(check bool) "inner ends inside outer" true (ends b <= ends a);
          Alcotest.(check (list (pair string string))) "args recorded" [ ("k", "v") ] b.Obs.args
      | evs -> Alcotest.failf "expected exactly 2 spans, got %d" (List.length evs))

let test_span_records_on_exception () =
  with_enabled (fun () ->
      (match Obs.Span.with_ "boom" (fun () -> raise Exit) with
      | () -> Alcotest.fail "expected Exit"
      | exception Exit -> ());
      match Obs.trace_events () with
      | [ e ] -> Alcotest.(check string) "span recorded despite raise" "boom" e.Obs.name
      | evs -> Alcotest.failf "expected exactly 1 span, got %d" (List.length evs))

(* --- trace contexts ------------------------------------------------ *)

module Trace_ctx = Tin_obs.Trace_ctx

let test_traceparent_roundtrip () =
  let tp = "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01" in
  (match Trace_ctx.of_traceparent tp with
  | Some ctx ->
      Alcotest.(check string) "trace id" "4bf92f3577b34da6a3ce929d0e0e4736" ctx.Trace_ctx.trace_id;
      Alcotest.(check string) "parent span id" "00f067aa0ba902b7" ctx.Trace_ctx.span_id;
      Alcotest.(check string) "re-renders" tp (Trace_ctx.to_traceparent ctx)
  | None -> Alcotest.fail "valid traceparent rejected");
  (* Surrounding whitespace tolerated (header values arrive trimmed or not). *)
  Alcotest.(check bool) "whitespace trimmed" true
    (Trace_ctx.of_traceparent (" " ^ tp ^ "\r") <> None);
  List.iter
    (fun (label, bad) ->
      Alcotest.(check bool) label true (Trace_ctx.of_traceparent bad = None))
    [
      ("empty", "");
      ("garbage", "not-a-traceparent");
      ("version ff reserved", "ff-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01");
      ("short trace id", "00-4bf92f3577b34da6a3ce929d0e0e47-00f067aa0ba902b7-01");
      ("uppercase hex", "00-4BF92F3577B34DA6A3CE929D0E0E4736-00f067aa0ba902b7-01");
      ("all-zero trace id", "00-00000000000000000000000000000000-00f067aa0ba902b7-01");
      ("all-zero parent id", "00-4bf92f3577b34da6a3ce929d0e0e4736-0000000000000000-01");
      ("missing flags", "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7");
    ]

let test_span_ids_stitch () =
  with_enabled (fun () ->
      let tp = "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01" in
      Obs.Span.with_root ~traceparent:tp "req" (fun () ->
          Obs.Span.with_ "child" (fun () -> ()));
      match List.sort (fun (a : Obs.event) b -> compare a.Obs.ts_ns b.Obs.ts_ns)
              (Obs.trace_events ()) with
      | [ root; child ] ->
          Alcotest.(check string) "root continues remote trace"
            "4bf92f3577b34da6a3ce929d0e0e4736" root.Obs.trace_id;
          Alcotest.(check string) "root parents the remote span" "00f067aa0ba902b7"
            root.Obs.parent_id;
          Alcotest.(check string) "child shares the trace" root.Obs.trace_id child.Obs.trace_id;
          Alcotest.(check string) "child parents the root" root.Obs.span_id child.Obs.parent_id;
          Alcotest.(check bool) "span ids distinct" true (root.Obs.span_id <> child.Obs.span_id)
      | evs -> Alcotest.failf "expected 2 spans, got %d" (List.length evs))

(* --- flight recorder ----------------------------------------------- *)

(* The ring is the one span store: past its capacity it overwrites its
   oldest spans, keeps the newest, and counts every overwrite once, in
   [dropped_events] and in one scrape line. *)
let test_flight_overflow_keeps_newest () =
  with_enabled (fun () ->
      Fun.protect
        ~finally:(fun () -> Obs.Flight.set_capacity Obs.Flight.default_capacity)
        (fun () ->
          Obs.Flight.set_capacity 4;
          for i = 1 to 20 do
            Obs.Span.with_ (Printf.sprintf "flood.%d" i) (fun () -> ())
          done;
          Alcotest.(check (list string)) "the newest four kept"
            [ "flood.17"; "flood.18"; "flood.19"; "flood.20" ]
            (names (Obs.trace_events ()));
          Alcotest.(check int) "the rest counted once" 16 (Obs.dropped_events ());
          let lines = String.split_on_char '\n' (Obs.prometheus_text ()) in
          Alcotest.(check (list string)) "one scrape line" [ "obs_dropped_span_events 16" ]
            (List.filter (String.starts_with ~prefix:"obs_") lines);
          Obs.reset ();
          Alcotest.(check int) "reset empties the ring" 0 (List.length (Obs.trace_events ()));
          Alcotest.(check int) "reset zeroes the count" 0 (Obs.dropped_events ())))

(* A trace that overflows keeps its newest spans, and on one domain a
   span completes after its children: the root survives, and the export
   still reads as one tree. *)
let test_flight_overflow_keeps_root () =
  with_enabled (fun () ->
      Fun.protect
        ~finally:(fun () -> Obs.Flight.set_capacity Obs.Flight.default_capacity)
        (fun () ->
          Obs.Flight.set_capacity 8;
          Obs.Span.with_root "overflow.root" (fun () ->
              for i = 1 to 20 do
                Obs.Span.with_ (Printf.sprintf "child.%d" i) (fun () -> ())
              done);
          match Tin_obs.Report.analyze (Tin_util.Json.parse_exn (Obs.chrome_trace_json ())) with
          | Error msg -> Alcotest.fail msg
          | Ok r ->
              Alcotest.(check int) "spans kept" 8 r.Tin_obs.Report.spans;
              Alcotest.(check int) "spans dropped" 13 r.Tin_obs.Report.dropped;
              Alcotest.(check int) "one root" 1 r.Tin_obs.Report.roots;
              Alcotest.(check int) "no orphans" 0 r.Tin_obs.Report.orphans;
              Alcotest.(check string) "the root kept" "overflow.root" r.Tin_obs.Report.root_name))

(* Disarmed and disabled together: spans cost nothing and land nowhere. *)
let test_flight_disarmed_records_nothing () =
  Obs.reset ();
  Obs.Flight.disarm ();
  Fun.protect
    ~finally:(fun () -> Obs.Flight.arm ())
    (fun () ->
      Obs.Span.with_ "ghost" (fun () -> ());
      Alcotest.(check int) "ring empty" 0 (List.length (Obs.trace_events ())))

let test_flight_dump_schema () =
  Obs.reset ();
  Obs.Flight.arm ();
  Obs.Span.with_ "flight.only" (fun () -> ());
  let path = Filename.temp_file "tin_obs_flight" ".json" in
  Fun.protect
    ~finally:(fun () ->
      Sys.remove path;
      Obs.reset ())
    (fun () ->
      ignore (Obs.Flight.dump ~path ~reason:"unit_test" ());
      let ic = open_in_bin path in
      let contents = really_input_string ic (in_channel_length ic) in
      close_in ic;
      let root = Json.parse contents in
      Alcotest.(check (option string)) "reason recorded" (Some "unit_test")
        (Option.bind (Json.mem "reason" root) Json.str);
      (match Json.mem "traceEvents" root with
      | Some (Json.Arr evs) ->
          let names =
            List.filter_map (fun e -> Option.bind (Json.mem "name" e) Json.str) evs
          in
          Alcotest.(check bool) "flight span dumped" true (List.mem "flight.only" names)
      | _ -> Alcotest.fail "flight dump has no traceEvents");
      Alcotest.(check (option (float 1e-9))) "drop count in dump" (Some 0.0)
        (Option.bind (Json.mem "dropped_events" root) Json.num))

(* Every span recorded under a traced [Batch.map_reduce] must reach the
   root request span by its parent chain, whatever the job count —
   the cross-domain stitching contract behind [tinflow obs report]. *)
let prop_map_reduce_spans_stitch =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:25 ~name:"map_reduce span parent chains reach the root"
       QCheck.(pair (int_bound 200) (int_range 1 6))
       (fun (n, jobs) ->
         with_enabled (fun () ->
             Obs.Span.with_root "prop.root" (fun () ->
                 ignore
                   (Batch.map_reduce ~jobs ~chunk:3 ~n
                      ~init:(fun () -> ref 0)
                      ~body:(fun acc i -> acc := !acc + i)
                      ~merge:(fun a b -> ref (!a + !b))
                      ()));
             let evs = Obs.trace_events () in
             let by_id = Hashtbl.create 64 in
             List.iter (fun (e : Obs.event) -> Hashtbl.replace by_id e.Obs.span_id e) evs;
             let root =
               match List.filter (fun (e : Obs.event) -> e.Obs.name = "prop.root") evs with
               | [ r ] -> r
               | rs -> Alcotest.failf "expected 1 root span, got %d" (List.length rs)
             in
             let bound = List.length evs in
             let rec reaches (e : Obs.event) steps =
               steps <= bound
               && (e.Obs.span_id = root.Obs.span_id
                  || e.Obs.parent_id <> ""
                     &&
                     match Hashtbl.find_opt by_id e.Obs.parent_id with
                     | Some p -> reaches p (steps + 1)
                     | None -> false)
             in
             Obs.dropped_events () = 0
             && List.for_all
                  (fun (e : Obs.event) ->
                    e.Obs.trace_id = root.Obs.trace_id && reaches e 0)
                  evs)))

(* --- exporters ----------------------------------------------------- *)

let record_sample_activity () =
  let c = Obs.Counter.make "test.trace.counter" in
  Obs.Counter.add c 3;
  Obs.Span.with_ "phase.a" ~args:[ ("size", "10"); ("quoted", "a\"b") ] (fun () ->
      Obs.Span.with_ "phase.a.sub" (fun () -> ignore (Sys.opaque_identity (Array.make 64 0))));
  Obs.Span.with_ "phase.b" (fun () -> ())

let test_chrome_trace_schema () =
  with_enabled (fun () ->
      record_sample_activity ();
      (* A span starting over 1 ms after the first: its microsecond
         offset has more than six significant digits. *)
      Unix.sleepf 0.002;
      Obs.Span.with_ "phase.late" (fun () -> ());
      let json = Obs.chrome_trace_json () in
      let root = Json.parse json in
      (* Object format: {"traceEvents": [...], "dropped_events": N}. *)
      let events =
        match Json.mem "traceEvents" root with
        | Some (Json.Arr evs) -> evs
        | _ -> Alcotest.fail "no traceEvents array"
      in
      Alcotest.(check (option (float 1e-9))) "dropped_events field" (Some 0.0)
        (Option.bind (Json.mem "dropped_events" root) Json.num);
      Alcotest.(check bool) "nonempty" true (events <> []);
      let phases = Hashtbl.create 8 in
      List.iter
        (fun e ->
          (* Every event: name/ph strings, pid/tid numbers — the
             fields Perfetto requires to place an event. *)
          let get k = Json.mem k e in
          let name = Option.bind (get "name") Json.str in
          let ph = Option.bind (get "ph") Json.str in
          Alcotest.(check bool) "has name" true (name <> None);
          Alcotest.(check bool)
            "has pid/tid" true
            (Option.bind (get "pid") Json.num <> None
            && Option.bind (get "tid") Json.num <> None);
          let ph = match ph with Some p -> p | None -> Alcotest.fail "missing ph" in
          Hashtbl.replace phases ph
            (1 + Option.value ~default:0 (Hashtbl.find_opt phases ph));
          match ph with
          | "X" ->
              let ts = Option.bind (get "ts") Json.num in
              let dur = Option.bind (get "dur") Json.num in
              Alcotest.(check bool) "X has ts >= 0" true (match ts with Some t -> t >= 0.0 | None -> false);
              Alcotest.(check bool) "X has dur >= 0" true (match dur with Some d -> d >= 0.0 | None -> false)
          | "M" ->
              Alcotest.(check (option string)) "metadata record" (Some "thread_name") name;
              Alcotest.(check bool) "metadata names the thread" true
                (Option.bind (get "args") (Json.mem "name") <> None)
          | "i" ->
              Alcotest.(check bool) "instant carries a value" true
                (Option.bind (get "args") (Json.mem "value") <> None)
          | other -> Alcotest.failf "unexpected phase %S" other)
        events;
      let count ph = Option.value ~default:0 (Hashtbl.find_opt phases ph) in
      Alcotest.(check int) "four complete spans" 4 (count "X");
      (* Every span's ts and dur are its recorded nanoseconds, rebased
         and in microseconds, exactly. *)
      let recorded = Obs.trace_events () in
      let base = (List.hd recorded).Obs.ts_ns in
      let spans =
        List.filter (fun e -> Option.bind (Json.mem "ph" e) Json.str = Some "X") events
      in
      List.iter2
        (fun e (r : Obs.event) ->
          let num k = Option.bind (Json.mem k e) Json.num in
          let us ns = Some (Int64.to_float ns /. 1e3) in
          Alcotest.(check (option (float 0.0))) ("ts of " ^ r.Obs.name)
            (us (Int64.sub r.Obs.ts_ns base)) (num "ts");
          Alcotest.(check (option (float 0.0))) ("dur of " ^ r.Obs.name) (us r.Obs.dur_ns)
            (num "dur"))
        spans recorded;
      Alcotest.(check bool) "thread metadata present" true (count "M" >= 1);
      Alcotest.(check bool) "counter instants present" true (count "i" >= 1);
      (* Timestamps are rebased to the earliest span. *)
      let min_ts =
        List.fold_left
          (fun acc e ->
            match (Option.bind (Json.mem "ph" e) Json.str, Option.bind (Json.mem "ts" e) Json.num) with
            | Some "X", Some ts -> Float.min acc ts
            | _ -> acc)
          infinity events
      in
      Alcotest.(check (float 1e-9)) "rebased to zero" 0.0 min_ts)

let test_write_chrome_trace_roundtrip () =
  with_enabled (fun () ->
      record_sample_activity ();
      let path = Filename.temp_file "tin_obs_trace" ".json" in
      Fun.protect
        ~finally:(fun () -> Sys.remove path)
        (fun () ->
          Obs.write_chrome_trace path;
          let ic = open_in_bin path in
          let len = in_channel_length ic in
          let contents = really_input_string ic len in
          close_in ic;
          match Json.mem "traceEvents" (Json.parse contents) with
          | Some (Json.Arr (_ :: _)) -> ()
          | _ -> Alcotest.fail "written trace has no nonempty traceEvents array"))

let test_metrics_json_schema () =
  with_enabled (fun () ->
      let c = Obs.Counter.make "test.metrics.counter" in
      Obs.Counter.add c 5;
      let h = Obs.Histogram.make "test.metrics.hist" in
      Obs.Histogram.observe h 2.0;
      let root = Json.parse (Obs.metrics_json ()) in
      let counters = Json.mem "counters" root in
      let histograms = Json.mem "histograms" root in
      Alcotest.(check (option (float 1e-9))) "counter exported" (Some 5.0)
        (Option.bind (Option.bind counters (Json.mem "test.metrics.counter")) Json.num);
      let hist = Option.bind histograms (Json.mem "test.metrics.hist") in
      Alcotest.(check (option (float 1e-9))) "histogram count" (Some 1.0)
        (Option.bind (Option.bind hist (Json.mem "count")) Json.num);
      Alcotest.(check bool) "dropped_events present" true
        (Json.mem "dropped_events" root <> None))

(* --- Prometheus exposition ----------------------------------------- *)

let is_name_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_' || c = ':'
let is_name_char c = is_name_start c || (c >= '0' && c <= '9')

(* Validate one sample line: name ( '{' k="escaped" (,..)* '}' )? ' ' float *)
let check_sample_line line =
  let n = String.length line in
  let pos = ref 0 in
  let fail msg = Alcotest.failf "%s in sample line %S" msg line in
  if n = 0 || not (is_name_start line.[0]) then fail "bad name start";
  while !pos < n && is_name_char line.[!pos] do
    incr pos
  done;
  if !pos < n && line.[!pos] = '{' then begin
    incr pos;
    let rec pair () =
      let k0 = !pos in
      if !pos >= n || not (is_name_start line.[!pos]) then fail "bad label name";
      while !pos < n && is_name_char line.[!pos] do
        incr pos
      done;
      if !pos = k0 then fail "empty label name";
      if !pos + 1 >= n || line.[!pos] <> '=' || line.[!pos + 1] <> '"' then
        fail "label not k=\"v\"";
      pos := !pos + 2;
      let rec scan_value () =
        if !pos >= n then fail "unterminated label value"
        else
          match line.[!pos] with
          | '"' -> incr pos
          | '\\' ->
              if !pos + 1 >= n then fail "dangling backslash";
              (match line.[!pos + 1] with
              | '\\' | '"' | 'n' -> ()
              | _ -> fail "invalid escape in label value");
              pos := !pos + 2;
              scan_value ()
          | '\n' -> fail "raw newline in label value"
          | _ ->
              incr pos;
              scan_value ()
      in
      scan_value ();
      if !pos < n && line.[!pos] = ',' then begin
        incr pos;
        pair ()
      end
      else if !pos < n && line.[!pos] = '}' then incr pos
      else fail "expected ',' or '}'"
    in
    pair ()
  end;
  if !pos >= n || line.[!pos] <> ' ' then fail "expected single space before value";
  let value = String.sub line (!pos + 1) (n - !pos - 1) in
  match value with
  | "NaN" | "+Inf" | "-Inf" -> ()
  | v -> if float_of_string_opt v = None then fail "unparsable value"

let test_prometheus_conformance () =
  with_enabled (fun () ->
      let fam = Obs.Counter.make_labeled "conformance_total" ~labels:[ "kind" ] in
      Obs.Counter.add (Obs.Counter.labeled fam [ "weird \"quoted\"\\\n" ]) 3;
      let g = Obs.Gauge.make "conformance.gauge" in
      Obs.Gauge.set g 1.5;
      let h = Obs.Histogram.make "conformance_hist" in
      Obs.Histogram.observe h 2.5;
      (* The daemon's request-latency family: a labeled histogram must
         export per-member _count/_sum rows that scrapers can parse. *)
      let lat =
        Obs.Histogram.make_labeled "http_request_duration_ms" ~labels:[ "route"; "status" ]
      in
      Obs.Histogram.observe (Obs.Histogram.labeled lat [ "/metrics"; "200" ]) 0.5;
      let text = Obs.prometheus_text () in
      Alcotest.(check bool) "ends with newline" true
        (String.length text > 0 && text.[String.length text - 1] = '\n');
      let lines = String.split_on_char '\n' text |> List.filter (fun l -> l <> "") in
      let typed = Hashtbl.create 32 in
      List.iter
        (fun line ->
          if String.starts_with ~prefix:"# TYPE " line then begin
            (match String.split_on_char ' ' line with
            | [ "#"; "TYPE"; name; ("counter" | "gauge" | "histogram" | "untyped") ] ->
                if Hashtbl.mem typed name then
                  Alcotest.failf "duplicate # TYPE for %s" name
                else Hashtbl.replace typed name ()
            | _ -> Alcotest.failf "malformed TYPE line %S" line)
          end
          else if String.starts_with ~prefix:"# HELP " line then begin
            match String.split_on_char ' ' line with
            | "#" :: "HELP" :: name :: _ when name <> "" -> ()
            | _ -> Alcotest.failf "malformed HELP line %S" line
          end
          else if String.starts_with ~prefix:"#" line then
            Alcotest.failf "unexpected comment %S" line
          else begin
            check_sample_line line;
            (* Every sample sits under a # TYPE block for its name. *)
            let stop =
              match String.index_opt line '{' with
              | Some i -> i
              | None -> ( match String.index_opt line ' ' with Some i -> i | None -> 0)
            in
            let name = String.sub line 0 stop in
            if not (Hashtbl.mem typed name) then
              Alcotest.failf "sample %S precedes its # TYPE" line
          end)
        lines;
      let has l = List.mem l lines in
      Alcotest.(check bool) "dotted gauge name sanitized" true (has "conformance_gauge 1.5");
      Alcotest.(check bool) "label value escaped" true
        (has "conformance_total{kind=\"weird \\\"quoted\\\"\\\\\\n\"} 3");
      Alcotest.(check bool) "histogram count exported" true (has "conformance_hist_count 1");
      Alcotest.(check bool) "histogram sum exported" true (has "conformance_hist_sum 2.5");
      Alcotest.(check bool) "span-loss counter always present" true
        (has "obs_dropped_span_events 0");
      Alcotest.(check bool) "labeled request-latency count" true
        (has "http_request_duration_ms_count{route=\"/metrics\",status=\"200\"} 1");
      Alcotest.(check bool) "labeled request-latency sum" true
        (has "http_request_duration_ms_sum{route=\"/metrics\",status=\"200\"} 0.5"))

(* --- runtime telemetry --------------------------------------------- *)

let test_runtime_sample () =
  with_enabled (fun () ->
      Obs.Runtime.sample ();
      let gs = Obs.gauges () in
      let present n = List.mem_assoc n gs in
      List.iter
        (fun n -> Alcotest.(check bool) n true (present n))
        [
          "runtime_gc_minor_collections";
          "runtime_gc_major_collections";
          "runtime_gc_heap_words";
          "runtime_gc_minor_words";
          "runtime_obs_domains";
        ];
      if Sys.file_exists "/proc/self/statm" then begin
        Alcotest.(check bool) "rss pages" true (present "runtime_rss_pages");
        Alcotest.(check bool) "rss bytes" true (present "runtime_rss_bytes");
        Alcotest.(check bool) "rss positive" true (List.assoc "runtime_rss_pages" gs > 0.0)
      end;
      Alcotest.(check bool) "heap words positive" true
        (List.assoc "runtime_gc_heap_words" gs > 0.0))

let test_runtime_peak_rss () =
  if Sys.file_exists "/proc/self/statm" then begin
    with_enabled (fun () ->
        Obs.Runtime.sample ();
        let gs = Obs.gauges () in
        Alcotest.(check bool) "peak published" true (List.mem_assoc "runtime_peak_rss_bytes" gs);
        let peak1 = List.assoc "runtime_peak_rss_bytes" gs in
        let cur1 = List.assoc "runtime_rss_bytes" gs in
        Alcotest.(check bool) "peak >= current at first sample" true (peak1 >= cur1);
        (* The gauge is max-tracking: plant a high-water mark above any
           realistic RSS and verify a later (smaller) sample does not
           lower it, while the point-in-time gauge keeps moving. *)
        let planted = 1e18 in
        Obs.Gauge.set (Obs.Gauge.make "runtime_peak_rss_bytes") planted;
        Obs.Runtime.sample ();
        let gs = Obs.gauges () in
        Alcotest.(check (float 0.0)) "peak survives smaller sample" planted
          (List.assoc "runtime_peak_rss_bytes" gs);
        Alcotest.(check bool) "current gauge still live" true
          (List.assoc "runtime_rss_bytes" gs < planted));
    (* reset clears the high-water mark along with everything else. *)
    Alcotest.(check bool) "cleared by reset" false
      (List.mem_assoc "runtime_peak_rss_bytes" (Obs.gauges ()))
  end

let test_runtime_sampler_thread () =
  with_enabled (fun () ->
      Alcotest.(check bool) "not running before start" false (Obs.Runtime.running ());
      Obs.Runtime.start ~period_ms:10 ();
      Alcotest.(check bool) "running" true (Obs.Runtime.running ());
      (* Idempotent start is a no-op. *)
      Obs.Runtime.start ~period_ms:10 ();
      Unix.sleepf 0.05;
      Obs.Runtime.stop ();
      Alcotest.(check bool) "stopped" false (Obs.Runtime.running ());
      Obs.Runtime.stop ();
      Alcotest.(check bool) "gauges published" true
        (List.mem_assoc "runtime_gc_heap_words" (Obs.gauges ())))

(* --- scrape endpoint ----------------------------------------------- *)

let http_get ~port path =
  let sock = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close sock with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect sock (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      let req =
        Printf.sprintf "GET %s HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n" path
      in
      let payload = Bytes.of_string req in
      let off = ref 0 in
      while !off < Bytes.length payload do
        off := !off + Unix.write sock payload !off (Bytes.length payload - !off)
      done;
      let buf = Bytes.create 4096 in
      let acc = Buffer.create 1024 in
      let rec drain () =
        let got = Unix.read sock buf 0 (Bytes.length buf) in
        if got > 0 then begin
          Buffer.add_subbytes acc buf 0 got;
          drain ()
        end
      in
      drain ();
      Buffer.contents acc)

(* The value of [name] in a Prometheus exposition body, if present. *)
let scrape_value body name =
  let needle = "\n" ^ name ^ " " in
  let rec find from =
    match String.index_from_opt body from '\n' with
    | None -> None
    | Some i ->
        if
          i + String.length needle <= String.length body
          && String.sub body i (String.length needle) = needle
        then begin
          let start = i + String.length needle in
          let stop =
            match String.index_from_opt body start '\n' with
            | Some j -> j
            | None -> String.length body
          in
          float_of_string_opt (String.trim (String.sub body start (stop - start)))
        end
        else find (i + 1)
  in
  find 0

let test_scrape_endpoint () =
  with_enabled (fun () ->
      let srv = Tin_obs.Serve.start ~addr:"127.0.0.1" ~port:0 () in
      Fun.protect
        ~finally:(fun () -> Tin_obs.Serve.stop srv)
        (fun () ->
          let port = Tin_obs.Serve.port srv in
          let c = Obs.Counter.make "test.scrape.static" in
          Obs.Counter.add c 42;
          let health = http_get ~port "/healthz" in
          Alcotest.(check bool) "healthz 200" true
            (String.starts_with ~prefix:"HTTP/1.1 200" health);
          let metrics = http_get ~port "/metrics" in
          Alcotest.(check bool) "metrics 200" true
            (String.starts_with ~prefix:"HTTP/1.1 200" metrics);
          Alcotest.(check bool) "content type" true
            (let ct = "Content-Type: text/plain; version=0.0.4" in
             let rec mem i =
               i + String.length ct <= String.length metrics
               && (String.sub metrics i (String.length ct) = ct || mem (i + 1))
             in
             mem 0);
          Alcotest.(check (option (float 1e-9))) "counter visible in scrape" (Some 42.0)
            (scrape_value metrics "test_scrape_static");
          let json = http_get ~port "/metrics.json" in
          let body =
            match String.index_opt json '{' with
            | Some i -> String.sub json i (String.length json - i)
            | None -> Alcotest.fail "no JSON body"
          in
          (match Json.parse body with
          | Json.Obj _ -> ()
          | _ -> Alcotest.fail "metrics.json body is not an object");
          let missing = http_get ~port "/nope" in
          Alcotest.(check bool) "404 for unknown path" true
            (String.starts_with ~prefix:"HTTP/1.1 404" missing)))

let test_scrape_concurrent_with_map_reduce () =
  with_enabled (fun () ->
      let srv = Tin_obs.Serve.start ~addr:"127.0.0.1" ~port:0 () in
      Fun.protect
        ~finally:(fun () -> Tin_obs.Serve.stop srv)
        (fun () ->
          let port = Tin_obs.Serve.port srv in
          let c = Obs.Counter.make "test.scrape.ticks" in
          let stop = Atomic.make false in
          let scraper =
            Domain.spawn (fun () ->
                let acc = ref [] in
                while not (Atomic.get stop) do
                  match scrape_value (http_get ~port "/metrics") "test_scrape_ticks" with
                  | Some v -> acc := v :: !acc
                  | None -> ()
                done;
                List.rev !acc)
          in
          let n = 60_000 in
          let total =
            Tin_core.Batch.map_reduce ~jobs:4 ~chunk:16 ~n
              ~init:(fun () -> ref 0)
              ~body:(fun acc _ ->
                Obs.Counter.incr c;
                incr acc)
              ~merge:(fun a b -> ref (!a + !b))
              ()
          in
          (* One guaranteed post-workload scrape before stopping, so
             the monotone sequence is nonempty and ends at the total. *)
          let final = scrape_value (http_get ~port "/metrics") "test_scrape_ticks" in
          Atomic.set stop true;
          let reads = Domain.join scraper @ Option.to_list final in
          Alcotest.(check int) "workload exact" n !total;
          Alcotest.(check int) "counter exact after workload" n (Obs.Counter.value c);
          Alcotest.(check (option (float 1e-9))) "final scrape sees the total" (Some (float_of_int n))
            final;
          Alcotest.(check bool) "scraped at least twice" true (List.length reads >= 2);
          let monotone =
            let rec go = function
              | a :: (b :: _ as rest) -> a <= b && go rest
              | _ -> true
            in
            go reads
          in
          Alcotest.(check bool) "counter reads are monotone" true monotone;
          Alcotest.(check bool) "reads bounded by the total" true
            (List.for_all (fun v -> v >= 0.0 && v <= float_of_int n) reads)))

(* --- serve robustness: dirty disconnects, idle peers, POST --------- *)

(* A peer that resets the connection after one byte of the response
   must not kill the process (SIGPIPE regression: the first write
   after the RST raises ECONNRESET, a subsequent one EPIPE — which is
   fatal unless SIGPIPE is ignored). *)
let test_dirty_disconnect_survives () =
  with_enabled (fun () ->
      let srv = Tin_obs.Serve.start ~addr:"127.0.0.1" ~port:0 () in
      Fun.protect
        ~finally:(fun () -> Tin_obs.Serve.stop srv)
        (fun () ->
          let port = Tin_obs.Serve.port srv in
          (* Plant a bulky metric set so the response spans several
             writes and the server keeps writing after the reset. *)
          for i = 1 to 200 do
            Obs.Counter.add (Obs.Counter.make (Printf.sprintf "test.dirty.bulk%03d" i)) i
          done;
          for _ = 1 to 20 do
            let sock = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
            (try
               Unix.connect sock (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
               let req = Bytes.of_string "GET /metrics HTTP/1.1\r\n\r\n" in
               ignore (Unix.write sock req 0 (Bytes.length req));
               (* Read one byte so the response is mid-flight, then
                  RST the connection (SO_LINGER 0 close). *)
               ignore (Unix.read sock (Bytes.create 1) 0 1);
               Unix.setsockopt_optint sock Unix.SO_LINGER (Some 0)
             with Unix.Unix_error _ -> ());
            (try Unix.close sock with Unix.Unix_error _ -> ())
          done;
          (* The server must still answer a full scrape. *)
          let metrics = http_get ~port "/metrics" in
          Alcotest.(check bool) "server alive after 20 dirty closes" true
            (String.starts_with ~prefix:"HTTP/1.1 200" metrics);
          Alcotest.(check bool) "scrape complete" true
            (scrape_value metrics "test_dirty_bulk200" = Some 200.0)))

(* An idle peer gets no response at all — the timeout is not
   misclassified as a malformed request (no 400 written into a
   possibly-dead socket). *)
let test_idle_peer_gets_no_response () =
  with_enabled (fun () ->
      let srv = Tin_obs.Serve.start ~addr:"127.0.0.1" ~port:0 ~read_timeout:0.2 () in
      Fun.protect
        ~finally:(fun () -> Tin_obs.Serve.stop srv)
        (fun () ->
          let port = Tin_obs.Serve.port srv in
          let sock = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
          Fun.protect
            ~finally:(fun () -> try Unix.close sock with Unix.Unix_error _ -> ())
            (fun () ->
              Unix.connect sock (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
              (* Send nothing; the server should close without writing. *)
              let got = Unix.read sock (Bytes.create 64) 0 64 in
              Alcotest.(check int) "no response bytes to an idle peer" 0 got);
          (* A half request (no terminator) also times out silently. *)
          let sock = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
          Fun.protect
            ~finally:(fun () -> try Unix.close sock with Unix.Unix_error _ -> ())
            (fun () ->
              Unix.connect sock (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
              let req = Bytes.of_string "GET /metrics HTTP/1.1\r\n" in
              ignore (Unix.write sock req 0 (Bytes.length req));
              let got = Unix.read sock (Bytes.create 64) 0 64 in
              Alcotest.(check int) "no response to a half request" 0 got);
          (* Genuinely malformed input is still answered 400. *)
          let bad = http_get ~port "%%%" in
          Alcotest.(check bool) "malformed still 400" true
            (String.starts_with ~prefix:"HTTP/1.1 400" bad
            || String.starts_with ~prefix:"HTTP/1.1 404" bad);
          let metrics = http_get ~port "/metrics" in
          Alcotest.(check bool) "server still serves" true
            (String.starts_with ~prefix:"HTTP/1.1 200" metrics)))

let http_post ~port path body =
  let sock = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close sock with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect sock (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      let req =
        Printf.sprintf
          "POST %s HTTP/1.1\r\nHost: localhost\r\nContent-Length: %d\r\nConnection: close\r\n\r\n%s"
          path (String.length body) body
      in
      let payload = Bytes.of_string req in
      let off = ref 0 in
      while !off < Bytes.length payload do
        off := !off + Unix.write sock payload !off (Bytes.length payload - !off)
      done;
      let buf = Bytes.create 4096 in
      let acc = Buffer.create 1024 in
      let rec drain () =
        let got = Unix.read sock buf 0 (Bytes.length buf) in
        if got > 0 then begin
          Buffer.add_subbytes acc buf 0 got;
          drain ()
        end
      in
      drain ();
      Buffer.contents acc)

let test_post_routes_and_bounded_body () =
  with_enabled (fun () ->
      let echoed = ref [] in
      let routes =
        [
          ( `POST,
            "/echo",
            fun ~body ->
              echoed := body :: !echoed;
              {
                Tin_obs.Serve.code = 200;
                content_type = "text/plain";
                body = string_of_int (String.length body);
              } );
        ]
      in
      let srv = Tin_obs.Serve.start ~addr:"127.0.0.1" ~port:0 ~max_body:64 ~routes () in
      Fun.protect
        ~finally:(fun () -> Tin_obs.Serve.stop srv)
        (fun () ->
          let port = Tin_obs.Serve.port srv in
          let ok = http_post ~port "/echo" "hello body" in
          Alcotest.(check bool) "registered POST answers" true
            (String.starts_with ~prefix:"HTTP/1.1 200" ok);
          Alcotest.(check (list string)) "handler saw the body" [ "hello body" ] !echoed;
          (* Declared body above max_body: 413, handler not invoked. *)
          let big = http_post ~port "/echo" (String.make 100 'x') in
          Alcotest.(check bool) "oversized body rejected" true
            (String.starts_with ~prefix:"HTTP/1.1 413" big);
          Alcotest.(check int) "handler not invoked for 413" 1 (List.length !echoed);
          (* Wrong method on a known path: 405. *)
          let wrong = http_get ~port "/echo" in
          Alcotest.(check bool) "GET on POST-only path is 405" true
            (String.starts_with ~prefix:"HTTP/1.1 405" wrong);
          (* Built-in routes still reachable alongside user routes. *)
          let metrics = http_get ~port "/metrics" in
          Alcotest.(check bool) "metrics still served" true
            (String.starts_with ~prefix:"HTTP/1.1 200" metrics)))

(* --- exporter escaping round-trip ---------------------------------- *)

(* Arbitrary printable metric names (quotes, backslashes, newlines,
   tabs ...) must survive the trip through [metrics_json] and this
   file's independent JSON reader byte-for-byte. *)
let prop_metrics_json_roundtrip =
  let printable =
    QCheck.Gen.(
      string_size ~gen:(map Char.chr (oneof [ int_range 32 126; return 9; return 10 ])) (int_range 1 24))
  in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:100 ~name:"metrics_json round-trips arbitrary printable names"
       (QCheck.make ~print:String.escaped printable)
       (fun raw ->
         let name = "prop.rt." ^ raw in
         with_enabled (fun () ->
             let c = Obs.Counter.make name in
             Obs.Counter.add c 7;
             let root = Json.parse (Obs.metrics_json ()) in
             Option.bind (Option.bind (Json.mem "counters" root) (Json.mem name)) Json.num
             = Some 7.0)))

let () =
  Alcotest.run "obs"
    [
      ( "counters",
        [
          Alcotest.test_case "disabled path is invisible" `Quick test_disabled_is_invisible;
          Alcotest.test_case "basics" `Quick test_counter_basics;
          Alcotest.test_case "histogram summary" `Quick test_histogram_summary;
          Alcotest.test_case "negative add rejected" `Quick test_counter_negative_add;
          prop_parallel_counter_exact;
        ] );
      ( "gauges",
        [
          Alcotest.test_case "basics" `Quick test_gauge_basics;
          Alcotest.test_case "last write wins across domains" `Quick
            test_gauge_last_write_wins_across_domains;
        ] );
      ( "families",
        [ Alcotest.test_case "labeled metric families" `Quick test_labeled_families ] );
      ( "spans",
        [
          Alcotest.test_case "nesting" `Quick test_spans_nest;
          Alcotest.test_case "recorded on exception" `Quick test_span_records_on_exception;
        ] );
      ( "trace-context",
        [
          Alcotest.test_case "traceparent round-trip" `Quick test_traceparent_roundtrip;
          Alcotest.test_case "span ids stitch" `Quick test_span_ids_stitch;
          prop_map_reduce_spans_stitch;
        ] );
      ( "flight",
        [
          Alcotest.test_case "overflow keeps the newest spans" `Quick
            test_flight_overflow_keeps_newest;
          Alcotest.test_case "overflowing trace keeps its root" `Quick
            test_flight_overflow_keeps_root;
          Alcotest.test_case "disarmed records nothing" `Quick
            test_flight_disarmed_records_nothing;
          Alcotest.test_case "dump schema" `Quick test_flight_dump_schema;
        ] );
      ( "runtime",
        [
          Alcotest.test_case "one-shot sample" `Quick test_runtime_sample;
          Alcotest.test_case "peak rss high-water mark" `Quick test_runtime_peak_rss;
          Alcotest.test_case "sampler thread" `Quick test_runtime_sampler_thread;
        ] );
      ( "serve",
        [
          Alcotest.test_case "scrape endpoint" `Quick test_scrape_endpoint;
          Alcotest.test_case "concurrent scrape during map_reduce" `Quick
            test_scrape_concurrent_with_map_reduce;
          Alcotest.test_case "dirty disconnect survives (SIGPIPE)" `Quick
            test_dirty_disconnect_survives;
          Alcotest.test_case "idle peer gets no response" `Quick
            test_idle_peer_gets_no_response;
          Alcotest.test_case "POST routes and bounded body" `Quick
            test_post_routes_and_bounded_body;
        ] );
      ( "export",
        [
          Alcotest.test_case "chrome trace schema" `Quick test_chrome_trace_schema;
          Alcotest.test_case "write roundtrip" `Quick test_write_chrome_trace_roundtrip;
          Alcotest.test_case "metrics json schema" `Quick test_metrics_json_schema;
          Alcotest.test_case "prometheus conformance" `Quick test_prometheus_conformance;
          prop_metrics_json_roundtrip;
        ] );
    ]
