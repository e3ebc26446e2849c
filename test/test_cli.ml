(* End-to-end integration tests of the tinflow CLI binary: generate a
   network, then exercise every subcommand against it and check exit
   codes and key output fragments.  The binary is a declared dune
   dependency, reachable relatively from the test's working
   directory. *)

let exe =
  (* Under `dune runtest` the cwd is _build/default/test; under
     `dune exec` it is the project root. *)
  List.find_opt Sys.file_exists
    [ "../bin/tinflow.exe"; "_build/default/bin/tinflow.exe"; "bin/tinflow.exe" ]
  |> Option.value ~default:"../bin/tinflow.exe"

let run_capture args =
  let out = Filename.temp_file "tinflow_out" ".txt" in
  let cmd = Printf.sprintf "%s %s > %s 2>&1" (Filename.quote exe) args (Filename.quote out) in
  let code = Sys.command cmd in
  let content = In_channel.with_open_text out In_channel.input_all in
  Sys.remove out;
  (code, content)

let contains hay needle =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

let check_ok msg (code, content) =
  if code <> 0 then Alcotest.failf "%s: exit %d, output:\n%s" msg code content;
  content

let csv = Filename.temp_file "tinflow_net" ".csv"

let test_generate () =
  let out =
    check_ok "generate" (run_capture (Printf.sprintf "generate %s --shape prosper --factor 0.04 --seed 9" csv))
  in
  Alcotest.(check bool) "reports stats" true (contains out "wrote");
  Alcotest.(check bool) "file exists" true (Sys.file_exists csv)

let test_flow_explicit_endpoints () =
  let out = check_ok "flow" (run_capture (Printf.sprintf "flow %s -s 0 -t 1" csv)) in
  Alcotest.(check bool) "greedy line" true (contains out "greedy flow");
  Alcotest.(check bool) "maximum line" true (contains out "maximum flow");
  Alcotest.(check bool) "difficulty line" true (contains out "Class")

let test_flow_synthetic_endpoints_hint () =
  (* The dense synthetic network puts every vertex on a cycle, so the
     default synthetic endpoints cannot apply; the CLI must explain
     rather than crash. *)
  let code, out = run_capture (Printf.sprintf "flow %s" csv) in
  if code = 0 then Alcotest.(check bool) "computed" true (contains out "maximum flow")
  else Alcotest.(check bool) "hint shown" true (contains out "hint:")

let test_flow_split_and_method () =
  let out = check_ok "flow split" (run_capture (Printf.sprintf "flow %s --split 0 -m timeexp" csv)) in
  Alcotest.(check bool) "method output" true (contains out "TimeExp flow")

let test_paths () =
  let out = check_ok "paths" (run_capture (Printf.sprintf "paths %s -s 0 -t 1 --top 3" csv)) in
  Alcotest.(check bool) "route summary" true (contains out "temporal routes")

let test_provenance () =
  (* A fixed miniature network with a known answer: vertex 3 absorbs 6
     units, 5 of which were born at the 0->1 interaction under every
     policy's totals (the vectors differ). *)
  let net = Filename.temp_file "tinflow_prov" ".csv" in
  Out_channel.with_open_text net (fun oc ->
      output_string oc "src,dst,time,qty\n0,1,1,5\n2,1,2,3\n1,3,3,6\n");
  Fun.protect
    ~finally:(fun () -> Sys.remove net)
    (fun () ->
      let out =
        check_ok "provenance"
          (run_capture (Printf.sprintf "provenance %s --sink 3 --policy lrb --top 5" net))
      in
      Alcotest.(check bool) "header" true (contains out "provenance of vertex 3");
      Alcotest.(check bool) "policy named" true (contains out "lrb policy");
      Alcotest.(check bool) "total reported" true (contains out "buffered quantity: 6");
      Alcotest.(check bool) "origin row" true (contains out "interaction #0 0->1");
      Alcotest.(check bool) "spill stats" true (contains out "spills: 0");
      let out2 =
        check_ok "provenance rooted"
          (run_capture
             (Printf.sprintf "provenance %s --sink 3 --source 0 --policy prop" net))
      in
      Alcotest.(check bool) "rooted total = greedy" true
        (contains out2 "buffered quantity: 5");
      let code, err = run_capture (Printf.sprintf "provenance %s --sink 99" net) in
      Alcotest.(check bool) "unknown sink rejected" true (code <> 0);
      Alcotest.(check bool) "unknown sink diagnostic" true (contains err "99"))

let test_profile () =
  let out = check_ok "profile" (run_capture (Printf.sprintf "profile %s -s 0 -t 1 --greedy" csv)) in
  Alcotest.(check bool) "csv header" true (contains out "time,cumulative_flow")

let test_patterns_builtin_and_custom () =
  let out =
    check_ok "patterns"
      (run_capture (Printf.sprintf "patterns %s -p p2 --custom \"a->b, b->a'\" --limit 500" csv))
  in
  Alcotest.(check bool) "table rendered" true (contains out "Pattern instances");
  Alcotest.(check bool) "builtin row" true (contains out "P2");
  Alcotest.(check bool) "custom row" true (contains out "a->b, b->a'")

let test_patterns_precompute () =
  let out =
    check_ok "patterns pb" (run_capture (Printf.sprintf "patterns %s -p rp2 --precompute" csv))
  in
  Alcotest.(check bool) "PB mode" true (contains out "(PB)")

let test_patterns_parallel_matches_sequential () =
  (* --jobs must not change untruncated results; --hybrid must agree
     with the plain graph-browsing output. *)
  let args j extra = Printf.sprintf "patterns %s -p p2 -p p3 --jobs %d%s" csv j extra in
  let seq = check_ok "patterns jobs=1" (run_capture (args 1 "")) in
  let par = check_ok "patterns jobs=3" (run_capture (args 3 "")) in
  let hybrid = check_ok "patterns hybrid" (run_capture (args 3 " --hybrid")) in
  Alcotest.(check string) "jobs=3 output identical" seq par;
  Alcotest.(check bool) "hybrid mode banner" true (contains hybrid "GB hybrid");
  (* Same table body: compare everything after the banner line. *)
  let body s = match String.index_opt s '\n' with
    | Some i -> String.sub s (i + 1) (String.length s - i - 1)
    | None -> s
  in
  Alcotest.(check string) "hybrid table identical" (body seq) (body hybrid);
  let code, _ = run_capture (args 0 "") in
  Alcotest.(check bool) "jobs=0 rejected" true (code <> 0)

let test_patterns_time_budget () =
  let out =
    check_ok "patterns budget"
      (run_capture (Printf.sprintf "patterns %s -p p3 --time-budget-ms 0.001" csv))
  in
  Alcotest.(check bool) "table rendered" true (contains out "Pattern instances")

let test_metrics_and_trace () =
  (* --metrics prints the counter table to stderr; --trace writes a
     Chrome-trace JSON object with at least one complete span. *)
  let trace = Filename.temp_file "tinflow_trace" ".json" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists trace then Sys.remove trace)
    (fun () ->
      let out =
        check_ok "flow --metrics --trace"
          (run_capture (Printf.sprintf "flow %s -s 0 -t 1 --metrics --trace %s" csv trace))
      in
      Alcotest.(check bool) "counter table" true (contains out "observability: counters");
      Alcotest.(check bool) "a counter is reported" true (contains out "pipeline.stage.");
      Alcotest.(check bool) "trace announced" true (contains out "trace written to");
      let json = In_channel.with_open_text trace In_channel.input_all in
      Alcotest.(check bool) "JSON object format" true (String.length json > 0 && json.[0] = '{');
      Alcotest.(check bool) "traceEvents array" true (contains json "\"traceEvents\"");
      Alcotest.(check bool) "dropped_events field" true (contains json "\"dropped_events\"");
      Alcotest.(check bool) "complete events" true (contains json "\"ph\": \"X\"");
      Alcotest.(check bool) "thread metadata" true (contains json "thread_name");
      (* The same flags work on a pattern search and record spans from
         the patterns layer. *)
      let out2 =
        check_ok "patterns --metrics --trace"
          (run_capture
             (Printf.sprintf "patterns %s -p p2 --limit 200 --metrics --trace %s" csv trace))
      in
      Alcotest.(check bool) "ticket counter" true (contains out2 "catalog.tickets");
      let json2 = In_channel.with_open_text trace In_channel.input_all in
      Alcotest.(check bool) "catalog span" true (contains json2 "catalog.search"))

(* --trace sizes the span ring for the whole run: a search with more
   anchors than the default ring holds still exports one
   [catalog.anchor] span per anchor, none dropped. *)
let test_trace_keeps_every_anchor () =
  let module Json = Tin_util.Json in
  let net = Filename.temp_file "tinflow_wide" ".csv" in
  let trace = Filename.temp_file "tinflow_trace" ".json" in
  Fun.protect
    ~finally:(fun () -> List.iter (fun f -> if Sys.file_exists f then Sys.remove f) [ net; trace ])
    (fun () ->
      ignore
        (check_ok "generate wide"
           (run_capture (Printf.sprintf "generate %s --shape bitcoin --factor 0.1 --seed 7" net)));
      let out =
        check_ok "patterns --trace"
          (run_capture (Printf.sprintf "patterns %s -p rp2 --trace %s" net trace))
      in
      Alcotest.(check bool) "search untruncated" false (contains out "RP2*");
      let doc = Json.parse_exn (In_channel.with_open_text trace In_channel.input_all) in
      let spans named =
        match Json.member "traceEvents" doc with
        | Some (Json.Arr evs) ->
            List.filter (fun e -> Option.bind (Json.member "name" e) Json.str = Some named) evs
        | _ -> Alcotest.fail "trace has no traceEvents array"
      in
      let anchors =
        match spans "catalog.search" with
        | [ s ] -> (
            match Option.bind (Json.member "args" s) (Json.member "anchors") with
            | Some (Json.Str a) -> int_of_string a
            | _ -> Alcotest.fail "catalog.search span has no anchors arg")
        | l -> Alcotest.failf "expected one catalog.search span, got %d" (List.length l)
      in
      Alcotest.(check bool) "more anchors than the default ring" true
        (anchors > Tin_obs.Obs.Flight.default_capacity);
      Alcotest.(check int) "one catalog.anchor span per anchor" anchors
        (List.length (spans "catalog.anchor"));
      Alcotest.(check (option (float 0.0))) "none dropped" (Some 0.0)
        (Option.bind (Json.member "dropped_events" doc) Json.num))

let test_dot () =
  let out = check_ok "dot" (run_capture (Printf.sprintf "dot %s" csv)) in
  Alcotest.(check bool) "digraph" true (contains out "digraph")

let test_bad_usage () =
  let code, _ = run_capture "flow /nonexistent.csv" in
  Alcotest.(check bool) "nonzero exit" true (code <> 0);
  let code, _ = run_capture "nonsense-subcommand" in
  Alcotest.(check bool) "unknown subcommand" true (code <> 0)

let corrupt_fixture =
  List.find_opt Sys.file_exists [ "data/corrupt.csv"; "test/data/corrupt.csv" ]
  |> Option.value ~default:"data/corrupt.csv"

let test_corrupt_csv_diagnostic () =
  (* Malformed input must produce a file:line:column diagnostic and a
     nonzero exit, not a backtrace. *)
  let code, out = run_capture (Printf.sprintf "flow %s -s 0 -t 1" corrupt_fixture) in
  Alcotest.(check int) "exit 1" 1 code;
  Alcotest.(check bool) "no backtrace" true (not (contains out "Raised at"));
  Alcotest.(check bool) "file:line:column diagnostic" true (contains out "corrupt.csv:3:9");
  Alcotest.(check bool) "names the defect" true (contains out "NaN")

let test_verify_fuzz_clean () =
  let out = check_ok "verify" (run_capture "verify --seed 42 --cases 50") in
  Alcotest.(check bool) "summary" true (contains out "all invariants held")

let test_verify_injected_caught () =
  let dir = Filename.temp_file "tinflow_dump" "" in
  Sys.remove dir;
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists dir then begin
        Array.iter (fun n -> Sys.remove (Filename.concat dir n)) (Sys.readdir dir);
        Sys.rmdir dir
      end)
    (fun () ->
      let code, out =
        run_capture (Printf.sprintf "verify --seed 42 --cases 10 --inject 0.25 --dump %s" dir)
      in
      Alcotest.(check int) "exit 1" 1 code;
      Alcotest.(check bool) "disagreement reported" true (contains out "max-flow-disagreement");
      Alcotest.(check bool) "counterexample path shown" true
        (contains out "minimized counterexample");
      Alcotest.(check bool) "CSV dumped" true
        (Array.exists
           (fun n -> Filename.check_suffix n ".csv")
           (Sys.readdir dir)))

let test_verify_single_network () =
  let out = check_ok "verify csv" (run_capture (Printf.sprintf "verify %s -s 0 -t 1" csv)) in
  Alcotest.(check bool) "all oracles agree" true (contains out "ok: all oracles agree")

let test_log_json () =
  let out =
    check_ok "flow --log-json" (run_capture (Printf.sprintf "flow %s -s 0 -t 1 --log-json" csv))
  in
  Alcotest.(check bool) "run.start event" true (contains out "{\"event\":\"run.start\"");
  Alcotest.(check bool) "run.end event" true (contains out "\"event\":\"run.end\"");
  Alcotest.(check bool) "exit code recorded" true (contains out "\"exit_code\":0")

let test_listen_announces_port () =
  (* --listen 0 binds an ephemeral port, announces it, and shuts the
     endpoint down cleanly when the run ends. *)
  let out =
    check_ok "verify --listen" (run_capture "verify --seed 7 --cases 5 --listen 0")
  in
  Alcotest.(check bool) "endpoint announced" true
    (contains out "serving /metrics, /metrics.json and /healthz on port")

let write_file path contents = Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc contents)

(* --- serve daemon end to end --------------------------------------- *)

let http_request ~port request =
  let sock = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close sock with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect sock (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      let payload = Bytes.of_string request in
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

let read_file path = In_channel.with_open_text path In_channel.input_all

(* Wait (with timeout) until the daemon's log satisfies [pred]. *)
let rec await ?(tries = 200) path pred =
  let text = try read_file path with Sys_error _ -> "" in
  if pred text then text
  else if tries = 0 then Alcotest.failf "timed out waiting; log so far:\n%s" text
  else begin
    Unix.sleepf 0.05;
    await ~tries:(tries - 1) path pred
  end

let test_serve_daemon_e2e () =
  (* Full lifecycle: start the daemon on an ephemeral port, stream a
     cycle over POST /ingest, confirm the windowed flow and the
     pattern alert, scrape the serve gauges, then shut down cleanly
     with SIGTERM. *)
  let log = Filename.temp_file "tinflow_serve" ".log" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove log with Sys_error _ -> ())
    (fun () ->
      let err_fd = Unix.openfile log [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
      let pid =
        Unix.create_process exe
          [|
            exe; "serve"; "--source"; "0"; "--sink"; "2"; "--window"; "100"; "--cadence";
            "2"; "--pattern"; "p2"; "--min-flow"; "1"; "--log-json";
          |]
          Unix.stdin Unix.stdout err_fd
      in
      Unix.close err_fd;
      let killed = ref false in
      Fun.protect
        ~finally:(fun () ->
          if not !killed then begin
            (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
            ignore (Unix.waitpid [] pid)
          end)
        (fun () ->
          let text = await log (fun t -> contains t "\"event\":\"serve.start\"") in
          let port =
            let key = "\"port\":" in
            match String.index_opt text 'p' with
            | _ -> (
                let rec find i =
                  if i + String.length key > String.length text then
                    Alcotest.fail "no port in serve.start event"
                  else if String.sub text i (String.length key) = key then begin
                    let stop = ref (i + String.length key) in
                    while
                      !stop < String.length text
                      && text.[!stop] >= '0'
                      && text.[!stop] <= '9'
                    do
                      incr stop
                    done;
                    int_of_string (String.sub text (i + String.length key) (!stop - i - String.length key))
                  end
                  else find (i + 1)
                in
                find 0)
          in
          (* Stream a 2-cycle: source feeds 0->1->2 (flow 4) and 1->0
             returns 3, so P2 alerts on the cadence tick. *)
          let body =
            "{\"src\":0,\"dst\":1,\"time\":1,\"qty\":5}\n\
             {\"src\":1,\"dst\":0,\"time\":2,\"qty\":3}\n\
             {\"src\":1,\"dst\":2,\"time\":3,\"qty\":4}\n"
          in
          let resp =
            http_request ~port
              (Printf.sprintf
                 "POST /ingest HTTP/1.1\r\nContent-Length: %d\r\nConnection: close\r\n\r\n%s"
                 (String.length body) body)
          in
          Alcotest.(check bool) "ingest 200" true (contains resp "HTTP/1.1 200");
          Alcotest.(check bool) "all accepted" true (contains resp "\"accepted\":3");
          (* The daemon's reported flow equals the batch greedy value:
             0->1 delivers 5 at t=1, the return 1->0 drains 3 at t=2,
             so 1->2 can only relay the remaining 2 at t=3. *)
          let status =
            http_request ~port "GET /status HTTP/1.1\r\nConnection: close\r\n\r\n"
          in
          Alcotest.(check bool) "windowed flow exact" true (contains status "\"flow\":2");
          (* The new serve gauges are in the Prometheus exposition. *)
          let metrics =
            http_request ~port "GET /metrics HTTP/1.1\r\nConnection: close\r\n\r\n"
          in
          Alcotest.(check bool) "ingested counter" true
            (contains metrics "serve_ingested_total 3");
          Alcotest.(check bool) "window gauge" true
            (contains metrics "serve_window_interactions 3");
          Alcotest.(check bool) "lag gauge present" true
            (contains metrics "serve_ingest_lag_seconds");
          Alcotest.(check bool) "rows gauge present" true
            (contains metrics "serve_rows_recomputed_total");
          (* Clean shutdown on SIGTERM. *)
          Unix.kill pid Sys.sigterm;
          let _, wstatus = Unix.waitpid [] pid in
          killed := true;
          (match wstatus with
          | Unix.WEXITED 0 -> ()
          | Unix.WEXITED n -> Alcotest.failf "serve exited %d" n
          | Unix.WSIGNALED n -> Alcotest.failf "serve killed by signal %d" n
          | Unix.WSTOPPED n -> Alcotest.failf "serve stopped by signal %d" n);
          let final = read_file log in
          Alcotest.(check bool) "pattern alert emitted" true
            (contains final "\"event\":\"serve.alert\"");
          Alcotest.(check bool) "alert names P2" true (contains final "\"pattern\":\"P2\"");
          Alcotest.(check bool) "clean stop event" true
            (contains final "\"event\":\"serve.stop\"");
          (* With --log-json, stderr is JSON lines and nothing else. *)
          String.split_on_char '\n' final
          |> List.iter (fun line ->
                 if line <> "" then
                   match Tin_util.Json.parse line with
                   | Ok _ -> ()
                   | Error msg -> Alcotest.failf "stderr line is not JSON (%s): %s" msg line)))

let test_convert_roundtrip () =
  let snap = Filename.temp_file "tinflow_conv" ".tinb" in
  let back = Filename.temp_file "tinflow_conv" ".csv" in
  Fun.protect
    ~finally:(fun () ->
      (try Sys.remove snap with Sys_error _ -> ());
      try Sys.remove back with Sys_error _ -> ())
    (fun () ->
      let out = check_ok "convert to tinb" (run_capture (Printf.sprintf "convert %s %s" csv snap)) in
      Alcotest.(check bool) "snapshot summary" true (contains out "snapshot v1");
      (* The snapshot feeds straight back into any subcommand via
         auto-detection. *)
      let out = check_ok "flow on snapshot" (run_capture (Printf.sprintf "flow %s -s 0 -t 1" snap)) in
      Alcotest.(check bool) "maximum line" true (contains out "maximum flow");
      (* Vertex ids do not depend on the input format, so answers that
         a cap truncates in id order agree too. *)
      let answers keep args file =
        check_ok args (run_capture (Printf.sprintf "%s %s" args file))
        |> String.split_on_char '\n'
        |> List.filter keep
      in
      let same_answers keep args =
        Alcotest.(check (list string)) (args ^ ": csv = tinb") (answers keep args csv)
          (answers keep args snap)
      in
      let prefixed p l = String.starts_with ~prefix:p l in
      same_answers
        (fun l -> prefixed "subgraphs:" l || prefixed "total flow:" l)
        "batch -j 1 --max-subgraphs 10";
      same_answers (prefixed "|") "patterns -p p2 -p p3 --limit 50";
      let _ = check_ok "convert back to csv" (run_capture (Printf.sprintf "convert %s %s" snap back)) in
      (* Same network both ways: interaction counts agree. *)
      let c_csv = Tin_graph.Io.load_compact csv in
      let c_back = Tin_graph.Io.load_compact back in
      Alcotest.(check int) "interactions preserved"
        (Tin_graph.Compact.n_interactions c_csv)
        (Tin_graph.Compact.n_interactions c_back))

let test_convert_bad_input () =
  let code, out = run_capture (Printf.sprintf "convert %s out.unknownext" csv) in
  Alcotest.(check bool) "nonzero exit" true (code <> 0);
  Alcotest.(check bool) "names the format" true (contains out "unknown output format")

let test_bench_check () =
  let dir = Filename.temp_file "tinflow_bench" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  let baseline = Filename.concat dir "baseline" in
  let cur = Filename.concat dir "BENCH_t.json" in
  Fun.protect
    ~finally:(fun () ->
      let rm_dir d =
        if Sys.file_exists d then begin
          Array.iter (fun n -> Sys.remove (Filename.concat d n)) (Sys.readdir d);
          Sys.rmdir d
        end
      in
      rm_dir baseline;
      rm_dir dir)
    (fun () ->
      write_file cur {|{"wall_ms": 100.0, "iters": 10}|};
      let args extra = Printf.sprintf "bench-check --baseline %s%s %s" baseline extra cur in
      (* Missing baseline: informational, not a failure. *)
      let out = check_ok "bench-check missing baseline" (run_capture (args "")) in
      Alcotest.(check bool) "explains the fix" true (contains out "--update-baseline");
      (* Record the baseline, then an identical run is clean. *)
      let _ = check_ok "bench-check --update-baseline" (run_capture (args " --update-baseline")) in
      Alcotest.(check bool) "baseline written" true
        (Sys.file_exists (Filename.concat baseline "BENCH_t.json"));
      let out = check_ok "bench-check clean" (run_capture (args "")) in
      Alcotest.(check bool) "clean verdict" true (contains out "within tolerance");
      (* A +100% wall-clock regression fails with a per-metric table. *)
      write_file cur {|{"wall_ms": 200.0, "iters": 10}|};
      let code, out = run_capture (args "") in
      Alcotest.(check int) "regression exits 1" 1 code;
      Alcotest.(check bool) "metric named" true (contains out "wall_ms");
      Alcotest.(check bool) "status shown" true (contains out "REGRESSED");
      (* An improvement beyond tolerance is not a failure. *)
      write_file cur {|{"wall_ms": 50.0, "iters": 10}|};
      let out = check_ok "bench-check improved" (run_capture (args "")) in
      Alcotest.(check bool) "improvement flagged" true (contains out "improved");
      (* A wider tolerance absorbs the deviation. *)
      write_file cur {|{"wall_ms": 110.0, "iters": 10}|};
      let _ = check_ok "bench-check tolerant" (run_capture (args " --tolerance 20")) in
      (* Counts are exact whatever the tolerance: a provenance document
         whose spills rose 30% and peak entries fell 30% exits 3, and
         so does an ingest document that lost a scenario. *)
      let base_t = Filename.concat baseline "BENCH_t.json" in
      let prov ~lrb_peak ~prop_spills =
        Printf.sprintf
          {|{"benchmark": "provenance", "scale": "quick", "scenarios": [
             {"name": "lrb", "spills": 2086, "peak_entries": %d, "scan_ms": 34.9},
             {"name": "prop", "spills": %d, "peak_entries": 30529, "scan_ms": 80.8}]}|}
          lrb_peak prop_spills
      in
      write_file base_t (prov ~lrb_peak:11697 ~prop_spills:1107654);
      write_file cur (prov ~lrb_peak:8188 ~prop_spills:1439950);
      let code, out = run_capture (args " --tolerance 50") in
      Alcotest.(check int) "drifted counts exit 3" 3 code;
      Alcotest.(check bool) "drifted counts named" true
        (contains out "scenarios.prop.spills" && contains out "scenarios.lrb.peak_entries"
        && contains out "DRIFTED" && contains out "2 exact metric(s) drifted");
      let scenario ?(rate = 5e4) name rebuilds =
        Printf.sprintf
          {|{"name": "%s", "interactions": 20000, "rebuilds": %d, "daemon_ingest_per_s": %g}|}
          name rebuilds rate
      in
      let ingest scenarios =
        Printf.sprintf {|{"benchmark": "ingest", "scale": "quick", "scenarios": [%s]}|}
          (String.concat ", " scenarios)
      in
      write_file base_t (ingest [ scenario "windowed" 180; scenario "ticked" 0 ]);
      write_file cur (ingest [ scenario "windowed" 180 ]);
      let code, out = run_capture (args " --tolerance 50") in
      Alcotest.(check int) "missing scenario exits 3" 3 code;
      Alcotest.(check bool) "missing counts named" true
        (contains out "scenarios.ticked.rebuilds" && contains out "2 exact metric(s) drifted");
      (* A new scenario is new coverage, not a drift; a timing-only
         regression still exits 1. *)
      write_file cur (ingest [ scenario "windowed" 180; scenario "ticked" 0; scenario "new" 1 ]);
      let _ = check_ok "added scenario" (run_capture (args " --tolerance 50")) in
      write_file cur (ingest [ scenario "windowed" 180; scenario ~rate:1e4 "ticked" 0 ]);
      let code, out = run_capture (args " --tolerance 50") in
      Alcotest.(check int) "timing-only regression exits 1" 1 code;
      Alcotest.(check bool) "no drift" true (contains out "0 exact metric(s) drifted");
      (* Unparsable input and bad flags are usage errors, not crashes. *)
      write_file cur "not json";
      let code, _ = run_capture (args "") in
      Alcotest.(check int) "bad JSON exits 2" 2 code;
      write_file cur {|{"wall_ms": 100.0}|};
      let code, _ = run_capture (args " --tolerance=-3") in
      Alcotest.(check int) "negative tolerance exits 2" 2 code;
      (* With no file arguments, every baseline document the working
         directory also holds is checked; the others are named as
         skipped. *)
      write_file (Filename.concat baseline "BENCH_t.json") {|{"wall_ms": 100.0}|};
      write_file (Filename.concat baseline "BENCH_u.json") {|{"wall_ms": 100.0}|};
      let abs_exe = if Filename.is_relative exe then Filename.concat (Sys.getcwd ()) exe else exe in
      let log = Filename.concat dir "out.txt" in
      let code =
        Sys.command
          (Printf.sprintf "cd %s && %s bench-check --baseline baseline > out.txt 2>&1"
             (Filename.quote dir) (Filename.quote abs_exe))
      in
      let out = In_channel.with_open_text log In_channel.input_all in
      Sys.remove log;
      if code <> 0 then Alcotest.failf "bench-check (default set): exit %d, output:\n%s" code out;
      Alcotest.(check bool) "checks the held document" true (contains out "BENCH_t.json vs");
      Alcotest.(check bool) "names the skipped one" true (contains out "BENCH_u.json: skipped");
      (* Documents of different scales measure different things. *)
      write_file (Filename.concat baseline "BENCH_t.json") {|{"scale": "full", "wall_ms": 100.0}|};
      write_file cur {|{"scale": "quick", "wall_ms": 100.0}|};
      let code, out = run_capture (args "") in
      Alcotest.(check int) "scale mismatch exits 2" 2 code;
      Alcotest.(check bool) "both scales named" true
        (contains out "\"full\"" && contains out "\"quick\"");
      Alcotest.(check bool) "no table" false (contains out "compared"))

let () =
  if not (Sys.file_exists exe) then begin
    print_endline "tinflow binary not found; skipping CLI integration tests";
    exit 0
  end;
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists csv then Sys.remove csv)
    (fun () ->
      Alcotest.run "cli"
        [
          ( "tinflow",
            [
              Alcotest.test_case "generate" `Quick test_generate;
              Alcotest.test_case "flow (explicit endpoints)" `Quick test_flow_explicit_endpoints;
              Alcotest.test_case "flow (synthetic endpoints hint)" `Quick
                test_flow_synthetic_endpoints_hint;
              Alcotest.test_case "flow (split, method)" `Quick test_flow_split_and_method;
              Alcotest.test_case "paths" `Quick test_paths;
              Alcotest.test_case "provenance" `Quick test_provenance;
              Alcotest.test_case "profile" `Quick test_profile;
              Alcotest.test_case "patterns builtin+custom" `Quick test_patterns_builtin_and_custom;
              Alcotest.test_case "patterns precompute" `Quick test_patterns_precompute;
              Alcotest.test_case "patterns parallel determinism" `Quick
                test_patterns_parallel_matches_sequential;
              Alcotest.test_case "patterns time budget" `Quick test_patterns_time_budget;
              Alcotest.test_case "metrics and trace flags" `Quick test_metrics_and_trace;
              Alcotest.test_case "trace keeps every anchor" `Quick test_trace_keeps_every_anchor;
              Alcotest.test_case "dot export" `Quick test_dot;
              Alcotest.test_case "bad usage" `Quick test_bad_usage;
              Alcotest.test_case "corrupt csv diagnostic" `Quick test_corrupt_csv_diagnostic;
              Alcotest.test_case "verify fuzz clean" `Quick test_verify_fuzz_clean;
              Alcotest.test_case "verify injected bug caught" `Quick test_verify_injected_caught;
              Alcotest.test_case "verify single network" `Quick test_verify_single_network;
              Alcotest.test_case "log-json events" `Quick test_log_json;
              Alcotest.test_case "listen announces port" `Quick test_listen_announces_port;
              Alcotest.test_case "serve daemon end to end" `Quick test_serve_daemon_e2e;
              Alcotest.test_case "convert round-trip" `Quick test_convert_roundtrip;
              Alcotest.test_case "convert bad output format" `Quick test_convert_bad_input;
              Alcotest.test_case "bench-check gate" `Quick test_bench_check;
            ] );
        ])
