(* Binary snapshot format: save/load round-trips (property-based and
   edge cases), every corruption class as a clean [Io] error with file
   context, magic sniffing, and the format-agnostic [Io] loaders'
   auto-detection. *)

open Tin_testlib
module VGen = Tin_verify.Gen

let i_ t q = Interaction.make ~time:t ~qty:q

let compact =
  Alcotest.testable (fun ppf c -> Graph.pp ppf (Compact.to_graph c)) Compact.equal

(* Save [c], run [f] on the temp path, clean up. *)
let with_snapshot c f =
  let path = Filename.temp_file "tin_snap" ".tinb" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Snapshot.save path c;
      f path)

let with_bytes_file bytes f =
  let path = Filename.temp_file "tin_snap" ".tinb" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Out_channel.with_open_bin path (fun oc -> Out_channel.output_bytes oc bytes);
      f path)

let read_bytes path =
  Bytes.of_string (In_channel.with_open_bin path In_channel.input_all)

let contains hay needle =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

(* A file that starts with the magic reaches the snapshot loader
   through [Io], whose one error type adds the file context. *)
let check_error ~needle path =
  match Io.load_result path with
  | Ok _ -> Alcotest.failf "expected error mentioning %S, got Ok" needle
  | Error e ->
      Alcotest.(check bool)
        (Printf.sprintf "message %S mentions %S" e.Io.message needle)
        true
        (contains e.Io.message needle);
      Alcotest.(check int) "whole-file error" 0 e.Io.line;
      (* The rendered diagnostic must carry the file name. *)
      Alcotest.(check bool) "file context" true
        (contains (Io.error_to_string e) (Filename.basename path))

(* --- round-trips ---------------------------------------------------- *)

let test_roundtrip_empty () =
  let c = Compact.of_entries [] in
  with_snapshot c (fun path ->
      Alcotest.check compact "empty round-trip" c (Io.load_compact path))

let test_roundtrip_isolated_vertices () =
  let c = Compact.of_entries ~vertices:[ 7; 3; 11 ] [] in
  with_snapshot c (fun path ->
      let c' = Io.load_compact path in
      Alcotest.check compact "isolated vertices survive" c c';
      Alcotest.(check int) "three vertices" 3 (Compact.n_vertices c'))

let test_roundtrip_self_loop () =
  (* Graph.t cannot represent self-loops, but the substrate (and hence
     the snapshot format) must round-trip them. *)
  let c = Compact.of_entries [ (5, 5, i_ 1.0 2.0); (5, 6, i_ 2.0 3.0) ] in
  with_snapshot c (fun path ->
      let c' = Io.load_compact path in
      Alcotest.(check bool) "equal" true (Compact.equal c c');
      Alcotest.(check bool) "self-loop kept" true (Compact.has_self_loops c'))

let test_roundtrip_duplicate_timestamps () =
  let c =
    Compact.of_entries
      [ (0, 1, i_ 1.0 2.0); (0, 1, i_ 1.0 2.0); (1, 2, i_ 1.0 2.0); (0, 2, i_ 1.0 1.0) ]
  in
  with_snapshot c (fun path ->
      Alcotest.check compact "duplicate timestamps round-trip" c (Io.load_compact path))

let prop_roundtrip rng =
  let g, _, _ = VGen.random_dag rng in
  let c = Compact.of_graph g in
  with_snapshot c (fun path -> Compact.equal c (Io.load_compact path))

let prop_roundtrip_through_graph rng =
  (* save -> load -> to_graph must reproduce the original graph, not
     just an equal substrate. *)
  let g, _, _ = VGen.random_digraph rng in
  let c = Compact.of_graph g in
  with_snapshot c (fun path -> Graph.equal g (Compact.to_graph (Io.load_compact path)))

(* --- corruption classes --------------------------------------------- *)

let test_bad_magic () =
  (* Without the magic, [Io] parses the file as CSV; only a direct
     snapshot load can meet this case. *)
  with_bytes_file (Bytes.of_string "not a snapshot at all") (fun path ->
      match Snapshot.load_result path with
      | Ok _ -> Alcotest.fail "expected error mentioning \"bad magic\", got Ok"
      | Error m ->
          Alcotest.(check bool) (Printf.sprintf "message %S mentions \"bad magic\"" m) true
            (contains m "bad magic"))

let test_truncated_header () =
  with_bytes_file (Bytes.of_string "TINB\x01\x00") (fun path ->
      check_error ~needle:"truncated header" path)

let test_wrong_version () =
  let c = Compact.of_entries [ (0, 1, i_ 1.0 2.0) ] in
  with_snapshot c (fun orig ->
      let buf = read_bytes orig in
      (* The version check fires before the checksum, so the stale CRC
         does not mask it. *)
      Bytes.set_int32_le buf 4 99l;
      with_bytes_file buf (fun path ->
          check_error ~needle:"unsupported snapshot version 99" path))

let test_truncated_payload () =
  let c = Compact.of_entries [ (0, 1, i_ 1.0 2.0); (1, 2, i_ 2.0 3.0) ] in
  with_snapshot c (fun orig ->
      let buf = read_bytes orig in
      let cut = Bytes.sub buf 0 (Bytes.length buf - 7) in
      with_bytes_file cut (fun path -> check_error ~needle:"truncated snapshot" path))

let test_checksum_mismatch () =
  let c = Compact.of_entries [ (0, 1, i_ 1.0 2.0) ] in
  with_snapshot c (fun orig ->
      let buf = read_bytes orig in
      (* Flip one payload byte; size and header stay plausible. *)
      let k = 40 in
      Bytes.set buf k (Char.chr (Char.code (Bytes.get buf k) lxor 0xFF));
      with_bytes_file buf (fun path -> check_error ~needle:"checksum mismatch" path))

let test_implausible_counts () =
  let c = Compact.of_entries [ (0, 1, i_ 1.0 2.0) ] in
  with_snapshot c (fun orig ->
      let buf = read_bytes orig in
      Bytes.set_int64_le buf 24 Int64.max_int;
      with_bytes_file buf (fun path -> check_error ~needle:"implausible counts" path))

let test_load_raises_with_context () =
  with_bytes_file (Bytes.of_string "TINBgarbage") (fun path ->
      match Io.load path with
      | _ -> Alcotest.fail "expected Io.Parse_error"
      | exception Io.Parse_error e ->
          Alcotest.(check string) "file recorded" path e.Io.file;
          Alcotest.(check int) "whole-file error" 0 e.Io.line;
          Alcotest.(check bool) "message" true (contains e.Io.message "truncated header"))

let test_missing_file () =
  let path = "/nonexistent/dir/missing.tinb" in
  match Snapshot.load_result path with
  | Ok _ -> Alcotest.fail "expected error"
  | Error m -> Alcotest.(check bool) "file recorded" true (contains m path)

let test_corrupt_fixture () =
  (* Checked-in fixture: a valid one-edge snapshot with one payload
     byte flipped (checksum mismatch).  Under `dune runtest` the cwd is
     _build/default/test. *)
  let path =
    List.find_opt Sys.file_exists [ "data/corrupt.tinb"; "test/data/corrupt.tinb" ]
    |> Option.value ~default:"data/corrupt.tinb"
  in
  check_error ~needle:"checksum mismatch" path;
  (* The auto-detecting Io loader reports the same failure as a
     whole-file parse error (line 0). *)
  (match Io.load_result path with
  | Ok _ -> Alcotest.fail "Io.load_result accepted corrupt snapshot"
  | Error e ->
      Alcotest.(check int) "whole-file error" 0 e.Io.line;
      Alcotest.(check bool) "message" true (contains e.Io.message "checksum mismatch"));
  match Io.load path with
  | exception Io.Parse_error { line = 0; _ } -> ()
  | exception e -> Alcotest.failf "unexpected exception %s" (Printexc.to_string e)
  | _ -> Alcotest.fail "expected Parse_error"

(* --- sniffing and auto-detection ------------------------------------ *)

let test_sniff () =
  let c = Compact.of_entries [ (0, 1, i_ 1.0 2.0) ] in
  with_snapshot c (fun path -> Alcotest.(check bool) "snapshot sniffs" true (Snapshot.sniff path));
  with_bytes_file (Bytes.of_string "0,1,1.0,2.0\n") (fun path ->
      Alcotest.(check bool) "csv does not sniff" false (Snapshot.sniff path));
  Alcotest.(check bool) "missing file" false (Snapshot.sniff "/nonexistent/x.tinb");
  with_bytes_file (Bytes.of_string "TI") (fun path ->
      Alcotest.(check bool) "short file" false (Snapshot.sniff path))

let test_io_autodetect_ignores_extension () =
  (* Detection is by magic, not extension: a snapshot stored as .csv
     still loads as a snapshot. *)
  let g = Paper_examples.fig3 in
  let c = Compact.of_graph g in
  let path = Filename.temp_file "tin_snap" ".csv" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Snapshot.save path c;
      Alcotest.check compact "load_compact" c (Io.load_compact path);
      Alcotest.check Check.graph "load_graph" g (Io.load_graph path);
      let net = Io.load path in
      Alcotest.(check int) "load" (Graph.n_interactions g) (Compact.n_interactions net))

let test_io_load_graph_rejects_self_loop_snapshot () =
  let c = Compact.of_entries [ (3, 3, i_ 1.0 2.0) ] in
  with_snapshot c (fun path ->
      (* The compact target accepts it... *)
      Alcotest.(check bool) "load_compact ok" true
        (Compact.equal c (Io.load_compact path));
      (* ...the persistent-graph target cannot represent it, and the
         pattern/extraction loader refuses it. *)
      let rejected what = function
        | Ok _ -> Alcotest.failf "%s: expected self-loop rejection" what
        | Error e ->
            Alcotest.(check int) (what ^ ": whole-file error") 0 e.Io.line;
            Alcotest.(check bool) (what ^ ": mentions self-loop") true
              (contains e.Io.message "self-loop")
      in
      rejected "load_graph"
        (match Io.load_graph path with g -> Ok g | exception Io.Parse_error e -> Error e);
      rejected "load_result" (Io.load_result path))

let prop_io_csv_and_snapshot_agree rng =
  (* The two on-disk formats load to equal substrates, and to equal
     graphs, through the format-agnostic loaders.  CSV cannot
     represent isolated vertices, so the snapshot is taken from the
     CSV round-trip (which drops them) rather than from the generated
     graph directly, and the graphs read back are [g] without its
     isolated vertices. *)
  let g, _, _ = VGen.random_dag rng in
  let csv = Filename.temp_file "tin_snap" ".csv" in
  let snap = Filename.temp_file "tin_snap" ".tinb" in
  Fun.protect
    ~finally:(fun () ->
      (try Sys.remove csv with Sys_error _ -> ());
      try Sys.remove snap with Sys_error _ -> ())
    (fun () ->
      Io.save_csv csv g;
      let c = Io.load_compact csv in
      Snapshot.save snap c;
      let edges_only =
        Graph.fold_edges (fun s d is acc -> Graph.add_edge acc ~src:s ~dst:d is) g Graph.empty
      in
      Compact.equal (Io.load_compact csv) (Io.load_compact snap)
      && Check.same_graph edges_only (Io.load_graph csv)
      && Check.same_graph edges_only (Io.load_graph snap))

(* --- column validation (of_columns) --------------------------------- *)

let test_of_columns_rejects_unsorted () =
  let cols =
    {
      Compact.c_labels = [| 0; 1 |];
      c_src = [| 0; 0 |];
      c_dst = [| 1; 1 |];
      c_time = Float.Array.of_list [ 2.0; 1.0 ];
      c_qty = Float.Array.of_list [ 1.0; 1.0 ];
    }
  in
  match Compact.of_columns cols with
  | Ok _ -> Alcotest.fail "accepted unsorted columns"
  | Error m -> Alcotest.(check bool) "mentions scan order" true (contains m "scan order")

let test_of_columns_rejects_bad_ids () =
  let cols =
    {
      Compact.c_labels = [| 0; 1 |];
      c_src = [| 0 |];
      c_dst = [| 5 |];
      c_time = Float.Array.of_list [ 1.0 ];
      c_qty = Float.Array.of_list [ 1.0 ];
    }
  in
  match Compact.of_columns cols with
  | Ok _ -> Alcotest.fail "accepted out-of-range id"
  | Error m -> Alcotest.(check bool) "mentions range" true (contains m "out of range")

let test_of_columns_rejects_decreasing_labels () =
  let cols =
    {
      Compact.c_labels = [| 4; 2 |];
      c_src = [||];
      c_dst = [||];
      c_time = Float.Array.create 0;
      c_qty = Float.Array.create 0;
    }
  in
  match Compact.of_columns cols with
  | Ok _ -> Alcotest.fail "accepted decreasing labels"
  | Error m -> Alcotest.(check bool) "mentions labels" true (contains m "label")

let () =
  Alcotest.run "snapshot"
    [
      ( "roundtrip",
        [
          Alcotest.test_case "empty" `Quick test_roundtrip_empty;
          Alcotest.test_case "isolated vertices" `Quick test_roundtrip_isolated_vertices;
          Alcotest.test_case "self-loop" `Quick test_roundtrip_self_loop;
          Alcotest.test_case "duplicate timestamps" `Quick test_roundtrip_duplicate_timestamps;
          Check.seeded_property ~count:60 "random DAGs round-trip" prop_roundtrip;
          Check.seeded_property ~count:60 "round-trip through Graph.t" prop_roundtrip_through_graph;
        ] );
      ( "corruption",
        [
          Alcotest.test_case "bad magic" `Quick test_bad_magic;
          Alcotest.test_case "truncated header" `Quick test_truncated_header;
          Alcotest.test_case "wrong version" `Quick test_wrong_version;
          Alcotest.test_case "truncated payload" `Quick test_truncated_payload;
          Alcotest.test_case "checksum mismatch" `Quick test_checksum_mismatch;
          Alcotest.test_case "implausible counts" `Quick test_implausible_counts;
          Alcotest.test_case "load raises with context" `Quick test_load_raises_with_context;
          Alcotest.test_case "missing file" `Quick test_missing_file;
          Alcotest.test_case "committed fixture" `Quick test_corrupt_fixture;
        ] );
      ( "detection",
        [
          Alcotest.test_case "sniff" `Quick test_sniff;
          Alcotest.test_case "extension-blind autodetect" `Quick test_io_autodetect_ignores_extension;
          Alcotest.test_case "self-loop snapshot vs Graph.t" `Quick
            test_io_load_graph_rejects_self_loop_snapshot;
          Check.seeded_property ~count:40 "csv and snapshot load equal"
            prop_io_csv_and_snapshot_agree;
        ] );
      ( "columns",
        [
          Alcotest.test_case "unsorted rejected" `Quick test_of_columns_rejects_unsorted;
          Alcotest.test_case "bad ids rejected" `Quick test_of_columns_rejects_bad_ids;
          Alcotest.test_case "decreasing labels rejected" `Quick
            test_of_columns_rejects_decreasing_labels;
        ] );
    ]
