(* Utility substrate: PRNG determinism and distributions, statistics,
   table rendering, float comparison. *)

module Prng = Tin_util.Prng
module Stats = Tin_util.Stats
module Table = Tin_util.Table
module Fcmp = Tin_util.Fcmp

let test_prng_determinism () =
  let a = Prng.create ~seed:42 and b = Prng.create ~seed:42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Prng.int64 a) (Prng.int64 b)
  done

let test_prng_seed_sensitivity () =
  let a = Prng.create ~seed:1 and b = Prng.create ~seed:2 in
  let xs = List.init 8 (fun _ -> Prng.int64 a) in
  let ys = List.init 8 (fun _ -> Prng.int64 b) in
  Alcotest.(check bool) "different streams" false (xs = ys)

let test_prng_copy_replays () =
  let a = Prng.create ~seed:7 in
  ignore (Prng.int64 a);
  let b = Prng.copy a in
  Alcotest.(check int64) "copy replays" (Prng.int64 a) (Prng.int64 b)

let test_prng_split_independent () =
  let a = Prng.create ~seed:7 in
  let b = Prng.split a in
  Alcotest.(check bool) "split stream differs" false (Prng.int64 a = Prng.int64 b)

let test_prng_int_bounds () =
  let rng = Prng.create ~seed:3 in
  for _ = 1 to 1000 do
    let v = Prng.int rng 17 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 17)
  done;
  Alcotest.check_raises "bound must be positive"
    (Invalid_argument "Prng.int: bound must be positive") (fun () -> ignore (Prng.int rng 0))

let test_prng_uniform_range () =
  let rng = Prng.create ~seed:4 in
  for _ = 1 to 1000 do
    let u = Prng.uniform rng in
    Alcotest.(check bool) "in [0,1)" true (u >= 0.0 && u < 1.0)
  done

let test_prng_uniform_mean () =
  let rng = Prng.create ~seed:5 in
  let n = 20_000 in
  let total = ref 0.0 in
  for _ = 1 to n do
    total := !total +. Prng.uniform rng
  done;
  let mean = !total /. float_of_int n in
  Alcotest.(check bool) "mean near 0.5" true (Float.abs (mean -. 0.5) < 0.02)

let test_prng_exponential_mean () =
  let rng = Prng.create ~seed:6 in
  let n = 20_000 in
  let total = ref 0.0 in
  for _ = 1 to n do
    total := !total +. Prng.exponential rng ~mean:3.0
  done;
  let mean = !total /. float_of_int n in
  Alcotest.(check bool) "mean near 3" true (Float.abs (mean -. 3.0) < 0.15)

let test_prng_zipf_skew () =
  let rng = Prng.create ~seed:8 in
  let counts = Array.make 100 0 in
  for _ = 1 to 20_000 do
    let k = Prng.zipf rng ~n:100 ~s:1.2 in
    Alcotest.(check bool) "in range" true (k >= 0 && k < 100);
    counts.(k) <- counts.(k) + 1
  done;
  Alcotest.(check bool) "rank 0 much hotter than rank 50" true (counts.(0) > 10 * counts.(50))

let test_prng_zipf_uniform_when_flat () =
  let rng = Prng.create ~seed:9 in
  for _ = 1 to 100 do
    let k = Prng.zipf rng ~n:10 ~s:0.0 in
    Alcotest.(check bool) "in range" true (k >= 0 && k < 10)
  done

let test_prng_shuffle_permutes () =
  let rng = Prng.create ~seed:10 in
  let a = Array.init 50 Fun.id in
  Prng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "same multiset" (Array.init 50 Fun.id) sorted;
  Alcotest.(check bool) "actually moved" true (a <> Array.init 50 Fun.id)

let test_stats_summary () =
  let s = Stats.summarize [ 1.0; 2.0; 3.0; 4.0 ] in
  Alcotest.(check int) "count" 4 s.Stats.count;
  Alcotest.(check (float 1e-9)) "mean" 2.5 s.Stats.mean;
  Alcotest.(check (float 1e-9)) "min" 1.0 s.Stats.min;
  Alcotest.(check (float 1e-9)) "max" 4.0 s.Stats.max;
  Alcotest.(check (float 1e-9)) "total" 10.0 s.Stats.total;
  Alcotest.(check (float 1e-6)) "stddev" 1.2909944487 s.Stats.stddev

let test_stats_empty () =
  let s = Stats.summarize [] in
  Alcotest.(check int) "count" 0 s.Stats.count;
  Alcotest.(check (float 0.0)) "mean" 0.0 s.Stats.mean

let test_stats_percentile () =
  let xs = [ 10.0; 20.0; 30.0; 40.0 ] in
  Alcotest.(check (float 1e-9)) "median" 25.0 (Stats.median xs);
  Alcotest.(check (float 1e-9)) "p0" 10.0 (Stats.percentile 0.0 xs);
  Alcotest.(check (float 1e-9)) "p100" 40.0 (Stats.percentile 100.0 xs);
  (* The empty sample never raises: an idle aggregation window must
     not crash the reporter. *)
  Alcotest.(check bool) "empty percentile is nan" true (Float.is_nan (Stats.percentile 50.0 []));
  Alcotest.(check bool) "empty median is nan" true (Float.is_nan (Stats.median []));
  Alcotest.check_raises "out-of-range p still raises"
    (Invalid_argument "Stats.percentile: p out of range") (fun () ->
      ignore (Stats.percentile 101.0 [ 1.0 ]))

let test_stats_acc_merge () =
  let a = Stats.Acc.create () and b = Stats.Acc.create () in
  let xs = List.init 37 (fun i -> float_of_int i /. 3.0) in
  let ys = List.init 53 (fun i -> float_of_int (i * i) /. 11.0) in
  List.iter (Stats.Acc.add a) xs;
  List.iter (Stats.Acc.add b) ys;
  Stats.Acc.merge_into ~into:a b;
  let merged = Stats.Acc.summary a and whole = Stats.summarize (xs @ ys) in
  Alcotest.(check int) "count" whole.Stats.count merged.Stats.count;
  Alcotest.(check (float 1e-9)) "mean" whole.Stats.mean merged.Stats.mean;
  Alcotest.(check (float 1e-6)) "stddev" whole.Stats.stddev merged.Stats.stddev;
  Alcotest.(check (float 1e-9)) "min" whole.Stats.min merged.Stats.min;
  Alcotest.(check (float 1e-9)) "max" whole.Stats.max merged.Stats.max;
  (* Merging an empty accumulator is the identity, in both directions. *)
  let before = Stats.Acc.summary a in
  Stats.Acc.merge_into ~into:a (Stats.Acc.create ());
  Alcotest.(check int) "merge empty keeps count" before.Stats.count (Stats.Acc.count a);
  let fresh = Stats.Acc.create () in
  Stats.Acc.merge_into ~into:fresh a;
  Alcotest.(check (float 1e-9)) "merge into empty" before.Stats.mean (Stats.Acc.mean fresh)

let prop_percentile_total =
  QCheck.Test.make ~count:300 ~name:"percentile never raises, nan iff empty"
    QCheck.(pair (float_bound_inclusive 100.0) (small_list (float_range (-1e6) 1e6)))
    (fun (p, xs) ->
      let v = Stats.percentile p xs in
      if xs = [] then Float.is_nan v
      else
        (* Within the sample's range, and monotone in p. *)
        let lo = List.fold_left Float.min Float.infinity xs in
        let hi = List.fold_left Float.max Float.neg_infinity xs in
        v >= lo && v <= hi
        && Stats.percentile 0.0 xs <= v
        && v <= Stats.percentile 100.0 xs)

let test_stats_acc_matches_summarize () =
  let xs = List.init 100 (fun i -> float_of_int (i * i) /. 7.0) in
  let acc = Stats.Acc.create () in
  List.iter (Stats.Acc.add acc) xs;
  let a = Stats.Acc.summary acc and b = Stats.summarize xs in
  Alcotest.(check (float 1e-9)) "mean" b.Stats.mean a.Stats.mean;
  Alcotest.(check (float 1e-6)) "stddev" b.Stats.stddev a.Stats.stddev

let test_table_render () =
  let s =
    Table.render ~title:"T" ~header:[ "name"; "value" ] [ [ "a"; "1" ]; [ "bb"; "22" ] ]
  in
  Alcotest.(check bool) "has title" true (String.length s > 0 && s.[0] = 'T');
  Alcotest.(check bool) "has borders" true (String.contains s '+');
  (* Rows align: every line has the same width in code points, also
     when a cell holds the 2-byte "µ" of [fmt_ms]. *)
  let code_points l =
    String.fold_left (fun n c -> if Char.code c land 0xC0 = 0x80 then n else n + 1) 0 l
  in
  List.iter
    (fun s ->
      match String.split_on_char '\n' (String.trim s) with
      | _ :: first :: rest ->
          List.iter
            (fun l -> Alcotest.(check int) ("aligned: " ^ l) (code_points first) (code_points l))
            rest
      | _ -> Alcotest.fail "expected several lines")
    [
      s;
      Table.render ~title:"T" ~header:[ "class"; "time" ]
        [ [ "A (54)"; Table.fmt_ms 0.0332 ]; [ "All (400)"; Table.fmt_ms 2.055 ] ];
    ]

let test_table_missing_cells () =
  let s = Table.render ~header:[ "a"; "b"; "c" ] [ [ "x" ] ] in
  Alcotest.(check bool) "renders" true (String.length s > 0)

let test_fmt_ms () =
  Alcotest.(check string) "micro" "50 \xc2\xb5s" (Table.fmt_ms 0.05);
  Alcotest.(check string) "milli" "5.775 ms" (Table.fmt_ms 5.775);
  Alcotest.(check string) "seconds" "23.2 s" (Table.fmt_ms 23_200.0)

let test_fmt_count () =
  Alcotest.(check string) "plain" "137" (Table.fmt_count 137.0);
  Alcotest.(check string) "kilo" "48.7K" (Table.fmt_count 48_700.0);
  Alcotest.(check string) "giga" "22.3G" (Table.fmt_count 22_300_000_000.0)

let test_fcmp () =
  Alcotest.(check bool) "eq" true (Fcmp.approx_eq 1.0 (1.0 +. 1e-9));
  Alcotest.(check bool) "neq" false (Fcmp.approx_eq 1.0 1.1);
  Alcotest.(check bool) "inf eq" true (Fcmp.approx_eq infinity infinity);
  Alcotest.(check bool) "relative at scale" true (Fcmp.approx_eq 1e12 (1e12 +. 1.0));
  Alcotest.(check bool) "le" true (Fcmp.approx_le 1.0000001 1.0);
  Alcotest.(check bool) "zero" true (Fcmp.is_zero 1e-9)

let test_timer_measures () =
  let _, ms = Tin_util.Timer.time_ms (fun () -> Sys.opaque_identity (Array.make 1000 0)) in
  Alcotest.(check bool) "non-negative" true (ms >= 0.0)

let () =
  Alcotest.run "util"
    [
      ( "prng",
        [
          Alcotest.test_case "determinism" `Quick test_prng_determinism;
          Alcotest.test_case "seed sensitivity" `Quick test_prng_seed_sensitivity;
          Alcotest.test_case "copy replays" `Quick test_prng_copy_replays;
          Alcotest.test_case "split independence" `Quick test_prng_split_independent;
          Alcotest.test_case "int bounds" `Quick test_prng_int_bounds;
          Alcotest.test_case "uniform range" `Quick test_prng_uniform_range;
          Alcotest.test_case "uniform mean" `Quick test_prng_uniform_mean;
          Alcotest.test_case "exponential mean" `Quick test_prng_exponential_mean;
          Alcotest.test_case "zipf skew" `Quick test_prng_zipf_skew;
          Alcotest.test_case "zipf flat" `Quick test_prng_zipf_uniform_when_flat;
          Alcotest.test_case "shuffle permutes" `Quick test_prng_shuffle_permutes;
        ] );
      ( "stats",
        [
          Alcotest.test_case "summary" `Quick test_stats_summary;
          Alcotest.test_case "empty" `Quick test_stats_empty;
          Alcotest.test_case "percentile" `Quick test_stats_percentile;
          Alcotest.test_case "acc matches" `Quick test_stats_acc_matches_summarize;
          Alcotest.test_case "acc merge" `Quick test_stats_acc_merge;
          QCheck_alcotest.to_alcotest prop_percentile_total;
        ] );
      ( "table",
        [
          Alcotest.test_case "render" `Quick test_table_render;
          Alcotest.test_case "missing cells" `Quick test_table_missing_cells;
          Alcotest.test_case "fmt_ms" `Quick test_fmt_ms;
          Alcotest.test_case "fmt_count" `Quick test_fmt_count;
        ] );
      ( "fcmp-timer",
        [
          Alcotest.test_case "fcmp" `Quick test_fcmp;
          Alcotest.test_case "timer" `Quick test_timer_measures;
        ] );
    ]
