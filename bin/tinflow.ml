(* tinflow: command-line front end to the library.

   Subcommands:
     flow      compute greedy/maximum flow on a CSV network
     batch     evaluate all extracted subgraph flows across CPU cores
     patterns  enumerate flow patterns on a CSV network
     serve     streaming ingestion daemon (POST /ingest, windowed flow, alerts)
     verify      differential correctness check / fuzzer
     generate    write a synthetic dataset to CSV
     convert     CSV <-> binary snapshot (.tinb)
     bench-check diff benchmark JSON against the committed baseline
     dot         render a CSV network to GraphViz

   Every subcommand that reads a network auto-detects CSV vs .tinb. *)

open Cmdliner
module Pipeline = Tin_core.Pipeline
module Endpoints = Tin_core.Endpoints
module Catalog = Tin_patterns.Catalog
module Table = Tin_util.Table
module Json = Tin_util.Json

let setup_logs () =
  Fmt_tty.setup_std_outputs ();
  Logs.set_reporter (Logs.format_reporter ());
  Logs.set_level (Some Logs.Warning)

(* Network loads report malformed input (CSV or snapshot) as a
   diagnostic and a nonzero exit, never a backtrace. *)

let or_parse_error f =
  match f () with
  | v -> v
  | exception Io.Parse_error e ->
      prerr_endline ("tinflow: " ^ Io.error_to_string e);
      exit 1
  | exception Sys_error msg ->
      prerr_endline ("tinflow: " ^ msg);
      exit 1

(* Auto-detecting: .tinb snapshots and CSV are both accepted everywhere
   a network is read. *)
let load_net file = or_parse_error (fun () -> Io.load file)
let load_graph file = or_parse_error (fun () -> Io.load_graph file)

(* --- structured event log (--log-json) --- *)

(* One compact JSON object per line on stderr: run lifecycle,
   per-stage progress, library log records, and a counter snapshot on
   exit. *)
module Event = struct
  let enabled = ref false

  let emit ?(fields = []) name =
    if !enabled then begin
      (* Correlate log lines with spans: every event carries the ids
         of the innermost open span on this domain, when there is
         one. *)
      let ids =
        match Tin_obs.Obs.Span.current_ids () with
        | Some (trace, span) -> [ ("trace_id", Json.Str trace); ("span_id", Json.Str span) ]
        | None -> []
      in
      let line =
        Json.Obj
          ((("event", Json.Str name) :: ("ts", Json.Num (Unix.gettimeofday ())) :: ids) @ fields)
      in
      prerr_string (Json.to_string Json.Compact line ^ "\n");
      flush stderr
    end

  (* A human-readable stderr line.  With [--log-json] it is left out,
     so that stderr carries event lines alone: every such line has an
     event twin. *)
  let note fmt =
    Printf.ksprintf (fun line -> if not !enabled then Printf.eprintf "tinflow: %s\n%!" line) fmt
end

(* A {!Logs} reporter that forwards every log record as an event line,
   so [--log-json] output stays machine-readable end to end. *)
let json_reporter () =
  let report src level ~over k msgf =
    msgf @@ fun ?header:_ ?tags:_ fmt ->
    Format.kasprintf
      (fun message ->
        Event.emit "log"
          ~fields:
            [
              ("level", Json.Str (Logs.level_to_string (Some level)));
              ("src", Json.Str (Logs.Src.name src));
              ("message", Json.Str message);
            ];
        over ();
        k ())
      fmt
  in
  { Logs.report }

(* --- observability (--metrics / --trace / --log-json, shared by every
       subcommand; --listen on the long-running ones) --- *)

type obs_opts = {
  metrics : bool;
  trace : string option;
  listen : int option;
  log_json : bool;
  flight_dump : string option;
}

let obs_term =
  let metrics =
    Arg.(
      value & flag
      & info [ "metrics" ]
          ~doc:
            "Enable the observability counters (LP iterations/pivots, pipeline stages, pattern \
             tickets, ...) and print a summary table to stderr on exit.")
  in
  let trace =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            (Printf.sprintf
               "Record spans across all domains and write a Chrome-trace JSON file to $(docv) \
                on exit (loadable in chrome://tracing or Perfetto).  Each domain keeps its \
                newest %d spans; the file's dropped_events counts the older ones overwritten."
               Tin_obs.Obs.Flight.trace_capacity))
  in
  let log_json =
    Arg.(
      value & flag
      & info [ "log-json" ]
          ~doc:
            "Emit structured JSON event lines on stderr (run lifecycle, stage progress, log \
             records, counter snapshot) instead of human-formatted logs.")
  in
  let flight_dump =
    Arg.(
      value
      & opt (some string) None
      & info [ "flight-dump" ] ~docv:"PREFIX"
          ~doc:
            "Path prefix for flight-recorder dump files (default tinflow-flight-<pid>).  The \
             always-on flight recorder keeps a bounded ring of recent spans per domain and \
             writes $(docv)-<reason>.json as a Chrome trace on SIGUSR2, on a daemon 5xx \
             response, and on crash.")
  in
  Term.(
    const (fun metrics trace log_json flight_dump ->
        { metrics; trace; listen = None; log_json; flight_dump })
    $ metrics $ trace $ log_json $ flight_dump)

(* The long-running subcommands additionally take [--listen]. *)
let obs_serve_term =
  let listen =
    Arg.(
      value
      & opt (some int) None
      & info [ "listen" ] ~docv:"PORT"
          ~doc:
            "Serve Prometheus text exposition on http://0.0.0.0:$(docv)/metrics while the \
             command runs (plus /metrics.json and /healthz).  Implies the counters and starts \
             the runtime/GC sampler.  PORT 0 picks a free port, announced on stderr.")
  in
  Term.(const (fun o listen -> { o with listen }) $ obs_term $ listen)

let with_obs ~cmd o run =
  let module Obs = Tin_obs.Obs in
  if o.log_json then begin
    Event.enabled := true;
    Logs.set_reporter (json_reporter ())
  end;
  (* Flight recorder: armed by default, independent of --metrics /
     --trace — the post-mortem black box.  SIGUSR2 dumps it on demand
     (the handler runs as regular OCaml code between allocations, so
     writing a file from it is safe); a crash below dumps it too.  The
     ring is also the span store --trace writes out, so a trace raises
     its capacity first. *)
  if o.trace <> None then Obs.Flight.set_capacity Obs.Flight.trace_capacity;
  Option.iter Obs.Flight.set_dump_prefix o.flight_dump;
  (match
     Sys.set_signal Sys.sigusr2
       (Sys.Signal_handle
          (fun _ ->
            let path = Obs.Flight.dump ~reason:"sigusr2" () in
            Event.note "flight recorder dumped to %s" path;
            Event.emit "flight.dump"
              ~fields:[ ("path", Json.Str path); ("reason", Json.Str "sigusr2") ]))
   with
  | () -> ()
  | exception (Invalid_argument _ | Sys_error _) -> (* no SIGUSR2 on this platform *) ());
  (* Every subcommand runs under a root request span, so anything the
     run records (batch chunks, LP solves, catalog searches) stitches
     into one per-invocation trace tree. *)
  let run () = Obs.Span.with_root ("tinflow." ^ cmd) run in
  let crash_dump () =
    match Obs.Flight.dump ~reason:"crash" () with
    | path ->
        Event.note "flight recorder dumped to %s" path;
        Event.emit "flight.dump" ~fields:[ ("path", Json.Str path); ("reason", Json.Str "crash") ]
    | exception _ -> ()
  in
  let server =
    match o.listen with
    | None -> None
    | Some port ->
        Obs.enable ();
        Obs.Runtime.start ~period_ms:500 ();
        let s = Tin_obs.Serve.start ~port () in
        Event.note "serving /metrics, /metrics.json and /healthz on port %d" (Tin_obs.Serve.port s);
        Event.emit "listen.start" ~fields:[ ("port", Json.int (Tin_obs.Serve.port s)) ];
        Some s
  in
  if o.metrics || o.trace <> None then Obs.enable ();
  let active = o.metrics || o.trace <> None || server <> None in
  if not (active || o.log_json) then (
    try run ()
    with e ->
      crash_dump ();
      raise e)
  else begin
    let t0 = Tin_util.Timer.now_ns () in
    Event.emit "run.start"
      ~fields:[ ("argv", Json.Str (String.concat " " (Array.to_list Sys.argv))) ];
    let finish outcome =
      Option.iter Tin_obs.Serve.stop server;
      if Obs.Runtime.running () then Obs.Runtime.stop ();
      if active && o.log_json then begin
        let counters = List.map (fun (n, v) -> (n, Json.int v)) (Obs.counters ()) in
        Event.emit "metrics.snapshot" ~fields:[ ("counters", Json.Obj counters) ]
      end;
      Obs.disable ();
      Option.iter
        (fun path ->
          Obs.write_chrome_trace path;
          let dropped = Obs.dropped_events () in
          Event.note "trace written to %s%s" path
            (if dropped = 0 then ""
             else Printf.sprintf " (incomplete: %d oldest span(s) overwritten)" dropped);
          Event.emit "trace.written"
            ~fields:[ ("path", Json.Str path); ("dropped_events", Json.int dropped) ])
        o.trace;
      if o.metrics then Obs.print_summary stderr;
      let elapsed =
        Int64.to_float (Int64.sub (Tin_util.Timer.now_ns ()) t0) /. 1e9
      in
      Event.emit "run.end"
        ~fields:
          (("elapsed_secs", Json.Num elapsed)
          ::
          (match outcome with
          | Ok code -> [ ("exit_code", Json.int code) ]
          | Error exn -> [ ("error", Json.Str (Printexc.to_string exn)) ]))
    in
    match run () with
    | code ->
        finish (Ok code);
        code
    | exception e ->
        crash_dump ();
        finish (Error e);
        raise e
  end

(* --- flow --- *)

let method_conv =
  let parse s =
    match String.lowercase_ascii s with
    | "greedy" -> Ok Pipeline.Greedy
    | "lp" -> Ok Pipeline.Lp
    | "pre" -> Ok Pipeline.Pre
    | "presim" -> Ok Pipeline.Pre_sim
    | "timeexp" | "time-expanded" -> Ok Pipeline.Time_expanded
    | _ -> Error (`Msg "expected greedy | lp | pre | presim | timeexp")
  in
  Arg.conv (parse, fun ppf m -> Fmt.string ppf (Pipeline.method_name m))

let file_arg =
  Arg.(
    required
    & pos 0 (some file) None
    & info [] ~docv:"NETWORK"
        ~doc:
          "Interaction network: CSV (src,dst,time,qty lines) or binary snapshot (.tinb, see \
           $(b,tinflow convert)); the format is auto-detected from the file contents.")

let flow_cmd =
  let source =
    Arg.(value & opt (some int) None & info [ "source"; "s" ] ~docv:"VERTEX" ~doc:"Source vertex (default: synthetic super-source over all sources).")
  in
  let sink =
    Arg.(value & opt (some int) None & info [ "sink"; "t" ] ~docv:"VERTEX" ~doc:"Sink vertex (default: synthetic super-sink over all sinks).")
  in
  let split =
    Arg.(value & opt (some int) None & info [ "split" ] ~docv:"VERTEX" ~doc:"Measure flow from VERTEX back to itself (splits it into a source/sink pair).")
  in
  let meth =
    Arg.(value & opt (some method_conv) None & info [ "method"; "m" ] ~docv:"METHOD" ~doc:"greedy | lp | pre | presim | timeexp (default: report greedy and presim).")
  in
  let run file source sink split meth obs =
    setup_logs ();
    with_obs ~cmd:"flow" obs @@ fun () ->
    let g = load_graph file in
    match
      match split with
      | Some v ->
          let ep = Endpoints.split g ~vertex:v in
          Ok (ep.Endpoints.graph, ep.Endpoints.source, ep.Endpoints.sink)
      | None -> (
          match (source, sink) with
          | Some s, Some t -> Ok (g, s, t)
          | _ -> (
              try
                let ep = Endpoints.add_synthetic g in
                let s = Option.value ~default:ep.Endpoints.source source in
                let t = Option.value ~default:ep.Endpoints.sink sink in
                Ok (ep.Endpoints.graph, s, t)
              with Invalid_argument msg ->
                Error
                  (Printf.sprintf
                     "%s\nhint: pass explicit --source/--sink vertices, or --split VERTEX to \
                      measure a round trip" msg)))
    with
    | Error msg ->
        prerr_endline ("tinflow: " ^ msg);
        1
    | Ok (g, source, sink) ->
    (match meth with
    | Some m ->
        Printf.printf "%s flow: %g\n" (Pipeline.method_name m)
          (Pipeline.compute m g ~source ~sink)
    | None ->
        let r = Pipeline.report g ~source ~sink in
        Printf.printf "greedy flow:  %g\n" (Pipeline.compute Pipeline.Greedy g ~source ~sink);
        Printf.printf "maximum flow: %g\n" r.Pipeline.value;
        Printf.printf "difficulty:   %s (LP variables %d -> %d)\n"
          (Pipeline.cls_name r.Pipeline.cls)
          r.Pipeline.lp_vars_before r.Pipeline.lp_vars_after);
        0
  in
  Cmd.v
    (Cmd.info "flow" ~doc:"Compute source-to-sink flow in an interaction network")
    Term.(const run $ file_arg $ source $ sink $ split $ meth $ obs_term)

(* --- batch --- *)

let batch_cmd =
  let jobs =
    Arg.(
      value
      & opt (some int) None
      & info [ "jobs"; "j" ] ~docv:"N"
          ~doc:"Number of domains (cores) to use (default: all recommended).")
  in
  let meth =
    Arg.(
      value
      & opt method_conv Pipeline.Pre_sim
      & info [ "method"; "m" ] ~docv:"METHOD" ~doc:"Flow method per subgraph (default presim).")
  in
  let max_interactions =
    Arg.(
      value
      & opt int 1000
      & info [ "max-interactions" ] ~docv:"N" ~doc:"Discard subgraphs above N interactions.")
  in
  let max_subgraphs =
    Arg.(value & opt int max_int & info [ "max-subgraphs" ] ~docv:"N" ~doc:"Stop after N subgraphs.")
  in
  let run file jobs meth max_interactions max_subgraphs obs =
    setup_logs ();
    with_obs ~cmd:"batch" obs @@ fun () ->
    if (match jobs with Some j -> j < 1 | None -> false) then begin
      prerr_endline "tinflow: --jobs must be positive";
      exit 2
    end;
    let net = load_net file in
    let problems =
      Tin_datasets.Extract.extract ~max_interactions ~max_subgraphs net
      |> List.map (fun (p : Tin_datasets.Extract.problem) ->
             { Tin_core.Batch.graph = p.Tin_datasets.Extract.graph;
               source = p.Tin_datasets.Extract.source;
               sink = p.Tin_datasets.Extract.sink })
    in
    if problems = [] then begin
      prerr_endline "tinflow: no cycle subgraphs found (nothing to batch)";
      1
    end
    else begin
      let jobs = Option.value jobs ~default:(Tin_core.Batch.recommended_jobs ()) in
      Event.emit "batch.start"
        ~fields:
          [
            ("file", Json.Str file);
            ("subgraphs", Json.int (List.length problems));
            ("jobs", Json.int jobs);
          ];
      let values, secs =
        Tin_util.Timer.time_f (fun () ->
            Tin_core.Batch.max_flows ~jobs ~method_:meth problems)
      in
      let total = List.fold_left ( +. ) 0.0 values in
      Event.emit "batch.done"
        ~fields:
          [
            ("subgraphs", Json.int (List.length values));
            ("total_flow", Json.Num total);
            ("elapsed_secs", Json.Num secs);
          ];
      Printf.printf "subgraphs:  %d\n" (List.length values);
      Printf.printf "total flow: %g\n" total;
      Printf.printf "elapsed:    %.3fs on %d domain(s) (%.1f subgraphs/s)\n" secs jobs
        (float_of_int (List.length values) /. Float.max secs 1e-9);
      0
    end
  in
  Cmd.v
    (Cmd.info "batch"
       ~doc:"Compute the flow of every extracted cycle subgraph, in parallel across cores")
    Term.(
      const run $ file_arg $ jobs $ meth $ max_interactions $ max_subgraphs
      $ obs_serve_term)

(* --- paths (flow decomposition) --- *)

let paths_cmd =
  let source = Arg.(required & opt (some int) None & info [ "source"; "s" ] ~docv:"VERTEX" ~doc:"Source vertex.") in
  let sink = Arg.(required & opt (some int) None & info [ "sink"; "t" ] ~docv:"VERTEX" ~doc:"Sink vertex.") in
  let top = Arg.(value & opt int 10 & info [ "top" ] ~docv:"N" ~doc:"Show the N heaviest routes.") in
  let run file source sink top obs =
    setup_logs ();
    with_obs ~cmd:"paths" obs @@ fun () ->
    let g = load_graph file in
    let value, routes = Tin_core.Decompose.max_flow_paths g ~source ~sink in
    Printf.printf "maximum flow: %g across %d temporal routes\n" value (List.length routes);
    List.sort
      (fun a b -> Float.compare b.Tin_core.Decompose.amount a.Tin_core.Decompose.amount)
      routes
    |> List.filteri (fun i _ -> i < top)
    |> List.iter (fun r ->
           let hops =
             List.map
               (fun leg ->
                 Printf.sprintf "%d->%d@%g" leg.Tin_core.Decompose.src
                   leg.Tin_core.Decompose.dst leg.Tin_core.Decompose.time)
               r.Tin_core.Decompose.legs
           in
           Printf.printf "  %-12g %s\n" r.Tin_core.Decompose.amount (String.concat "  " hops));
    0
  in
  Cmd.v
    (Cmd.info "paths" ~doc:"Decompose the maximum flow into temporal source-to-sink routes")
    Term.(const run $ file_arg $ source $ sink $ top $ obs_term)

(* --- provenance (origin attribution) --- *)

let provenance_cmd =
  let module Prov = Tin_core.Provenance in
  let sink = Arg.(required & opt (some int) None & info [ "sink"; "t" ] ~docv:"VERTEX" ~doc:"The vertex under investigation: report where its buffered quantity came from.") in
  let source = Arg.(value & opt (some int) None & info [ "source"; "s" ] ~docv:"VERTEX" ~doc:"Optional source vertex: restrict attribution to quantity rooted at this vertex (mirrors the greedy flow exactly; default is open-world, every interaction can originate mass).") in
  let policy =
    let policy_conv =
      Arg.conv
        ( (fun s ->
            match Prov.policy_of_string s with
            | Some p -> Ok p
            | None -> Error (`Msg (Printf.sprintf "unknown policy %S (expected lrb, mrb or prop)" s))),
          fun ppf p -> Format.pp_print_string ppf (Prov.policy_name p) )
    in
    Arg.(value & opt policy_conv Prov.Proportional & info [ "policy" ] ~docv:"POLICY" ~doc:"Selection policy: $(b,lrb) (least recently born moves first), $(b,mrb) (most recently born first) or $(b,prop) (proportional, order-insensitive; default).")
  in
  let top = Arg.(value & opt int 10 & info [ "top" ] ~docv:"N" ~doc:"Show the N heaviest origins (default 10).") in
  let budget = Arg.(value & opt int Prov.default_budget & info [ "budget" ] ~docv:"N" ~doc:"Per-buffer provenance entry budget; buffers over it spill to coarser origin groups (default 64).") in
  let run file source sink policy top budget obs =
    setup_logs ();
    with_obs ~cmd:"provenance" obs @@ fun () ->
    let g = load_graph file in
    if not (Graph.mem_vertex g sink) then begin
      Printf.eprintf "tinflow provenance: vertex %d is not in the network\n" sink;
      1
    end
    else begin
      let r = Prov.run ~policy ~budget ?source ~absorb:sink g in
      let total = List.assoc sink r.Prov.totals in
      let vec = List.assoc sink r.Prov.vectors in
      Printf.printf "provenance of vertex %d (%s policy%s)\n" sink (Prov.policy_name policy)
        (match source with Some s -> Printf.sprintf ", rooted at %d" s | None -> "");
      Printf.printf "buffered quantity: %g across %d origin group(s)\n" total (List.length vec);
      List.filteri (fun i _ -> i < top) vec
      |> List.iter (fun (o, m) ->
             let share = if total > 0.0 then 100.0 *. m /. total else 0.0 in
             Printf.printf "  %-12g %5.1f%%  %s\n" m share (Prov.describe_origin o));
      if List.length vec > top then
        Printf.printf "  ... and %d more origin group(s)\n" (List.length vec - top);
      Printf.printf "spills: %d, peak entries: %d\n" r.Prov.spills r.Prov.peak_entries;
      0
    end
  in
  Cmd.v
    (Cmd.info "provenance"
       ~doc:"Attribute a vertex's buffered quantity back to the interactions it was born at")
    Term.(const run $ file_arg $ source $ sink $ policy $ top $ budget $ obs_term)

(* --- profile --- *)

let profile_cmd =
  let source = Arg.(required & opt (some int) None & info [ "source"; "s" ] ~docv:"VERTEX" ~doc:"Source vertex.") in
  let sink = Arg.(required & opt (some int) None & info [ "sink"; "t" ] ~docv:"VERTEX" ~doc:"Sink vertex.") in
  let greedy = Arg.(value & flag & info [ "greedy" ] ~doc:"Greedy profile (single scan) instead of per-prefix maximum flows.") in
  let run file source sink greedy obs =
    setup_logs ();
    with_obs ~cmd:"profile" obs @@ fun () ->
    let g = load_graph file in
    let profile =
      if greedy then Tin_core.Window.greedy_profile g ~source ~sink
      else Tin_core.Window.max_flow_profile g ~source ~sink
    in
    Printf.printf "time,cumulative_flow\n";
    List.iter (fun (tau, v) -> Printf.printf "%g,%g\n" tau v) profile;
    0
  in
  Cmd.v
    (Cmd.info "profile" ~doc:"Flow accumulated at the sink as a function of time (CSV output)")
    Term.(const run $ file_arg $ source $ sink $ greedy $ obs_term)

(* --- patterns --- *)

let pattern_conv =
  let all = List.map (fun p -> (String.lowercase_ascii (Catalog.pattern_name p), p)) Catalog.all in
  Arg.enum all

let patterns_cmd =
  let which =
    Arg.(value & opt_all pattern_conv [] & info [ "pattern"; "p" ] ~docv:"P" ~doc:"Pattern to search (p1..p6, rp1..rp3); repeatable.  Default: all applicable.")
  in
  let custom =
    Arg.(value & opt_all string [] & info [ "custom" ] ~docv:"EDGES" ~doc:"Custom pattern, e.g. \"a->b, b->c, c->a'\" (primes mark a repeated label: a and a' must map to the same vertex).  Repeatable; searched by graph browsing.")
  in
  let limit =
    Arg.(value & opt int 100_000 & info [ "limit" ] ~docv:"N" ~doc:"Stop after N instances per pattern.")
  in
  let use_pb =
    Arg.(value & flag & info [ "precompute" ] ~doc:"Use the precomputation-based search (path tables) instead of graph browsing.")
  in
  let hybrid =
    Arg.(value & flag & info [ "hybrid" ] ~doc:"Graph browsing with table-assisted flow lookups: chain/cycle instances read their flow from the precomputed path tables instead of re-solving each match.  Ignored with $(b,--precompute).")
  in
  let jobs =
    Arg.(
      value
      & opt (some int) None
      & info [ "jobs"; "j" ] ~docv:"N"
          ~doc:"Shard the search by anchor vertex across N domains (cores).  Default 1; untruncated results are identical for every N.")
  in
  let time_budget =
    Arg.(
      value
      & opt (some float) None
      & info [ "time-budget-ms" ] ~docv:"MS"
          ~doc:"Wall-clock budget per pattern; searches past it stop early and are marked with '*'.")
  in
  let run file which custom limit use_pb hybrid jobs time_budget obs =
    setup_logs ();
    with_obs ~cmd:"patterns" obs @@ fun () ->
    (match jobs with
    | Some j when j < 1 ->
        prerr_endline "tinflow: --jobs must be positive";
        exit 2
    | _ -> ());
    let jobs = Option.value jobs ~default:1 in
    let net = load_net file in
    let which = if which = [] && custom = [] then Catalog.all else which in
    let tables =
      if use_pb || hybrid then Some (Catalog.precompute ~jobs ~with_chains:true net) else None
    in
    let rows =
      List.map
        (fun p ->
          let r =
            if use_pb then
              Catalog.pb ~jobs ~limit ?time_budget_ms:time_budget net (Option.get tables) p
            else Catalog.gb ~jobs ~limit ?time_budget_ms:time_budget ?tables net p
          in
          Event.emit "patterns.result"
            ~fields:
              [
                ("pattern", Json.Str (Catalog.pattern_name p));
                ("instances", Json.int r.Catalog.instances);
                ("total_flow", Json.Num r.Catalog.total_flow);
                ("truncated", Json.Bool r.Catalog.truncated);
              ];
          [
            (Catalog.pattern_name p ^ if r.Catalog.truncated then "*" else "");
            string_of_int r.Catalog.instances;
            Table.fmt_flow (Catalog.avg_flow r);
            Table.fmt_flow r.Catalog.total_flow;
          ])
        which
    in
    let custom_rows =
      List.map
        (fun text ->
          let p = Tin_patterns.Pattern.of_string text in
          let r =
            Catalog.gb_custom ~jobs ~limit ?time_budget_ms:time_budget
              ?tables:(if use_pb then None else tables)
              net p
          in
          [
            (text ^ if r.Catalog.truncated then "*" else "");
            string_of_int r.Catalog.instances;
            Table.fmt_flow (Catalog.avg_flow r);
            Table.fmt_flow r.Catalog.total_flow;
          ])
        custom
    in
    Table.print
      ~title:
        (Printf.sprintf "Pattern instances in %s (%s)" file
           (if use_pb then "PB" else if hybrid then "GB hybrid" else "GB"))
      ~header:[ "Pattern"; "Instances"; "Avg flow"; "Total flow" ]
      (rows @ custom_rows);
    0
  in
  Cmd.v
    (Cmd.info "patterns" ~doc:"Enumerate flow patterns and their maximum flows")
    Term.(
      const run $ file_arg $ which $ custom $ limit $ use_pb $ hybrid $ jobs $ time_budget
      $ obs_serve_term)

(* --- serve --- *)

let serve_cmd =
  let module Daemon = Tin_daemon.Daemon in
  let base =
    Arg.(
      value
      & pos 0 (some file) None
      & info [] ~docv:"NETWORK"
          ~doc:
            "Optional base network seeding the window and the precomputed path tables (CSV or \
             .tinb, auto-detected).  Without it the daemon starts empty.")
  in
  let source =
    Arg.(required & opt (some int) None & info [ "source"; "s" ] ~docv:"VERTEX" ~doc:"Source vertex of the monitored flow.")
  in
  let sink =
    Arg.(required & opt (some int) None & info [ "sink"; "t" ] ~docv:"VERTEX" ~doc:"Sink vertex of the monitored flow.")
  in
  let listen =
    Arg.(
      value & opt int 0
      & info [ "listen" ] ~docv:"PORT"
          ~doc:
            "TCP port for the HTTP endpoint (POST /ingest, GET /status, /metrics, \
             /metrics.json, /healthz).  PORT 0 (the default) picks a free port, announced on \
             stderr.")
  in
  let window =
    Arg.(
      value
      & opt (some float) None
      & info [ "window" ] ~docv:"SECS"
          ~doc:
            "Sliding event-time window: keep interactions within SECS of the newest accepted \
             timestamp (a closed interval); older ones are evicted from the flow computation.  \
             Default: unbounded.")
  in
  let cadence =
    Arg.(
      value & opt int 256
      & info [ "cadence" ] ~docv:"N"
          ~doc:
            "Re-evaluate patterns after every N accepted interactions (delta table \
             maintenance + catalog search).  0 disables ticking.")
  in
  let patterns =
    Arg.(
      value & opt_all pattern_conv []
      & info [ "pattern"; "p" ] ~docv:"P"
          ~doc:
            "Pattern to monitor (p1..p6, rp1..rp3); repeatable.  Alerts are emitted on the \
             --log-json event stream when an evaluation finds instances whose total flow \
             clears --min-flow.")
  in
  let min_flow =
    Arg.(
      value & opt float 0.
      & info [ "min-flow" ] ~docv:"F" ~doc:"Alert threshold on a pattern's total flow (default 0: any positive flow).")
  in
  let limit =
    Arg.(value & opt int 10_000 & info [ "limit" ] ~docv:"N" ~doc:"Instance cap per pattern evaluation.")
  in
  let run base source sink listen window cadence patterns min_flow limit obs =
    setup_logs ();
    with_obs ~cmd:"serve" obs @@ fun () ->
    let base_g = match base with None -> Graph.empty | Some f -> load_graph f in
    let on_alert (a : Daemon.alert) =
      Event.emit "serve.alert"
        ~fields:
          [
            ("pattern", Json.Str (Catalog.pattern_name a.Daemon.pattern));
            ("instances", Json.int a.Daemon.instances);
            ("total_flow", Json.Num a.Daemon.total_flow);
            ("tick", Json.int a.Daemon.tick);
          ]
    in
    let config = Daemon.config ~source ~sink ?window ~cadence ~patterns ~min_flow ~limit () in
    match Daemon.create ~base:base_g ~on_alert config with
    | exception Invalid_argument msg ->
        prerr_endline ("tinflow: " ^ msg);
        2
    | d ->
        Tin_obs.Obs.enable ();
        if not (Tin_obs.Obs.Runtime.running ()) then Tin_obs.Obs.Runtime.start ~period_ms:500 ();
        let s = Tin_obs.Serve.start ~port:listen ~routes:(Daemon.routes d) () in
        Event.note "serve: listening on port %d (POST /ingest, GET /status, /metrics)"
          (Tin_obs.Serve.port s);
        Event.emit "serve.start" ~fields:[ ("port", Json.int (Tin_obs.Serve.port s)) ];
        let stop = Atomic.make false in
        let on_signal _ = Atomic.set stop true in
        Sys.set_signal Sys.sigint (Sys.Signal_handle on_signal);
        Sys.set_signal Sys.sigterm (Sys.Signal_handle on_signal);
        while not (Atomic.get stop) do
          (* A signal (SIGUSR2 flight dump, SIGINT/SIGTERM) can land
             mid-sleep as EINTR; re-check the flag and keep idling. *)
          try Unix.sleepf 0.05 with Unix.Unix_error (Unix.EINTR, _, _) -> ()
        done;
        (* Final tick so table state and alerts cover the tail of the
           stream, then report. *)
        ignore (Daemon.tick d);
        let st = Daemon.stats d in
        Tin_obs.Serve.stop s;
        Event.emit "serve.stop"
          ~fields:
            [
              ("accepted_total", Json.int st.Daemon.accepted_total);
              ("rejected_total", Json.int st.Daemon.rejected_total);
              ("flow", Json.Num st.Daemon.flow);
            ];
        Event.note "serve: %d accepted, %d rejected, windowed flow %g" st.Daemon.accepted_total
          st.Daemon.rejected_total st.Daemon.flow;
        0
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the streaming ingestion daemon: accept interactions over HTTP (POST /ingest, \
          JSON lines), maintain a sliding window with incremental greedy flow, delta-maintain \
          the pattern tables on a cadence and alert on matching patterns")
    Term.(
      const run $ base $ source $ sink $ listen $ window $ cadence $ patterns $ min_flow
      $ limit $ obs_term)

(* --- verify --- *)

let verify_cmd =
  let module Verify = Tin_verify.Verify in
  let network =
    Arg.(
      value
      & pos 0 (some file) None
      & info [] ~docv:"NETWORK.csv"
          ~doc:"Check this network instead of fuzzing randomized instances.")
  in
  let source = Arg.(value & opt (some int) None & info [ "source"; "s" ] ~docv:"VERTEX" ~doc:"Source vertex (default: synthetic super-source).") in
  let sink = Arg.(value & opt (some int) None & info [ "sink"; "t" ] ~docv:"VERTEX" ~doc:"Sink vertex (default: synthetic super-sink).") in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc:"PRNG seed for the fuzzer.") in
  let cases = Arg.(value & opt int 200 & info [ "cases" ] ~docv:"N" ~doc:"Number of randomized instances to check.") in
  let inject =
    Arg.(
      value
      & opt (some float) None
      & info [ "inject" ] ~docv:"DELTA"
          ~doc:
            "Add a deliberately wrong oracle (time-expanded max flow plus DELTA) to demonstrate \
             that the harness catches and shrinks an injected solver bug.")
  in
  let dump =
    Arg.(
      value
      & opt (some string) None
      & info [ "dump" ] ~docv:"DIR"
          ~doc:"Write each minimized counterexample there as a reloadable CSV (created if absent).")
  in
  let print_outcome (o : Verify.outcome) =
    List.iter (fun (name, v) -> Printf.printf "  %-16s %g\n" name v) o.Verify.values;
    List.iter (fun d -> Format.printf "  %a@." Verify.pp_discrepancy d) o.Verify.discrepancies;
    List.iter
      (fun (oracle, counters) ->
        Printf.printf "  obs %-12s %s\n" oracle
          (String.concat " " (List.map (fun (n, v) -> Printf.sprintf "%s=%d" n v) counters)))
      o.Verify.obs
  in
  let run network source sink seed cases inject dump obs =
    setup_logs ();
    with_obs ~cmd:"verify" obs @@ fun () ->
    let extra = match inject with None -> [] | Some delta -> [ Verify.perturbed ~delta () ] in
    Option.iter (fun dir -> if not (Sys.file_exists dir) then Sys.mkdir dir 0o755) dump;
    match network with
    | Some file -> (
        let g = load_graph file in
        match
          match (source, sink) with
          | Some s, Some t -> Ok (g, s, t)
          | _ -> (
              try
                let ep = Endpoints.add_synthetic g in
                let s = Option.value ~default:ep.Endpoints.source source in
                let t = Option.value ~default:ep.Endpoints.sink sink in
                Ok (ep.Endpoints.graph, s, t)
              with Invalid_argument msg -> Error msg)
        with
        | Error msg ->
            prerr_endline ("tinflow: " ^ msg);
            1
        | Ok (g, source, sink) ->
            let outcome = Verify.check ~extra g ~source ~sink in
            print_outcome outcome;
            if outcome.Verify.discrepancies = [] then begin
              Printf.printf "ok: all oracles agree\n";
              0
            end
            else begin
              let shrunk = Verify.shrink ~extra g ~source ~sink in
              Option.iter
                (fun dir ->
                  let path = Filename.concat dir "counterexample.csv" in
                  Verify.dump_csv path shrunk ~source ~sink outcome;
                  Printf.printf "minimized counterexample: %s\n" path)
                dump;
              Printf.printf "FAILED: %d discrepancy(ies)\n"
                (List.length outcome.Verify.discrepancies);
              1
            end)
    | None ->
        let report = Verify.fuzz ~extra ?dump_dir:dump ~seed ~cases () in
        List.iter
          (fun (f : Verify.failure) ->
            Printf.printf "case %d (%s%s): %d discrepancy(ies)\n" f.Verify.case_index
              f.Verify.case.Tin_verify.Gen.family
              (match f.Verify.case.Tin_verify.Gen.mutations with
              | [] -> ""
              | ms -> " + " ^ String.concat "," ms)
              (List.length f.Verify.outcome.Verify.discrepancies);
            print_outcome f.Verify.outcome;
            Option.iter (Printf.printf "  minimized counterexample: %s\n") f.Verify.csv)
          report.Verify.failures;
        let n_fail = List.length report.Verify.failures in
        Printf.printf "%d case(s), %d oracle(s) per case: %s\n" report.Verify.cases_run
          (List.length Verify.oracle_names + List.length extra)
          (if n_fail = 0 then "all invariants held" else Printf.sprintf "%d FAILED" n_fail);
        if n_fail = 0 then 0 else 1
  in
  Cmd.v
    (Cmd.info "verify"
       ~doc:
         "Differentially test every flow oracle (greedy, the LP, time-expanded Dinic, the \
          accelerated pipeline, flow decomposition, provenance) against each other on randomized \
          or given networks")
    Term.(const run $ network $ source $ sink $ seed $ cases $ inject $ dump $ obs_serve_term)

(* --- generate --- *)

let generate_cmd =
  let dataset =
    Arg.(value & opt (enum [ ("bitcoin", `Bitcoin); ("ctu13", `Ctu); ("prosper", `Prosper) ]) `Bitcoin
        & info [ "shape" ] ~docv:"SHAPE" ~doc:"bitcoin | ctu13 | prosper")
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc:"PRNG seed.") in
  let factor =
    Arg.(value & opt float 0.1 & info [ "factor" ] ~docv:"F" ~doc:"Scale factor on the spec sizes.")
  in
  let out = Arg.(required & pos 0 (some string) None & info [] ~docv:"OUT.csv" ~doc:"Output file.") in
  let run out dataset seed factor obs =
    setup_logs ();
    with_obs ~cmd:"generate" obs @@ fun () ->
    let spec =
      Tin_datasets.Spec.scaled ~factor
        (match dataset with
        | `Bitcoin -> Tin_datasets.Spec.bitcoin
        | `Ctu -> Tin_datasets.Spec.ctu13
        | `Prosper -> Tin_datasets.Spec.prosper)
    in
    let net = Tin_datasets.Generator.generate ~seed spec in
    Io.save_csv out (Compact.to_graph net);
    let s = Tin_datasets.Generator.stats net in
    Printf.printf "wrote %s: %d vertices, %d edges, %d interactions\n" out
      s.Tin_datasets.Generator.n_vertices s.Tin_datasets.Generator.n_edges
      s.Tin_datasets.Generator.n_interactions;
    0
  in
  Cmd.v
    (Cmd.info "generate" ~doc:"Generate a synthetic interaction network CSV")
    Term.(const run $ out $ dataset $ seed $ factor $ obs_term)

(* --- convert --- *)

let convert_cmd =
  let input =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"IN" ~doc:"Input network (CSV or .tinb snapshot, auto-detected).")
  in
  let output =
    Arg.(
      required
      & pos 1 (some string) None
      & info [] ~docv:"OUT"
          ~doc:
            "Output file; its extension picks the format: $(b,.tinb) writes the checksummed \
             binary snapshot, $(b,.csv) writes text.")
  in
  let run input output obs =
    setup_logs ();
    with_obs ~cmd:"convert" obs @@ fun () ->
    or_parse_error @@ fun () ->
    let c = Io.load_compact input in
    let summary fmt =
      Printf.printf "wrote %s: %d vertices, %d edges, %d interactions%s\n" output
        (Compact.n_vertices c) (Compact.n_edges c) (Compact.n_interactions c) fmt
    in
    match String.lowercase_ascii (Filename.extension output) with
    | ".tinb" ->
        Snapshot.save output c;
        summary (Printf.sprintf " (snapshot v%d)" Snapshot.version);
        0
    | ".csv" -> (
        match Compact.to_graph c with
        | g ->
            Io.save_csv output g;
            summary "";
            0
        | exception Invalid_argument _ ->
            prerr_endline
              "tinflow: cannot write CSV: the snapshot contains self-loop interactions";
            1)
    | ext ->
        Printf.eprintf "tinflow: unknown output format %S (expected .tinb or .csv)\n" ext;
        2
  in
  Cmd.v
    (Cmd.info "convert"
       ~doc:
         "Convert an interaction network between CSV and the versioned binary snapshot format \
          (.tinb): one sorted load, then a checksummed dump that reloads without re-parsing or \
          re-sorting")
    Term.(const run $ input $ output $ obs_term)

(* --- bench-check --- *)

let bench_check_cmd =
  let module Regress = Tin_util.Regress in
  let files =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"BENCH.json"
          ~doc:
            "Benchmark documents to check (default: every BENCH_*.json of the baseline \
             directory that the current directory also holds).")
  in
  let baseline =
    Arg.(
      value
      & opt string "bench/baseline"
      & info [ "baseline" ] ~docv:"DIR"
          ~doc:"Directory holding the committed baseline documents (matched by file name).")
  in
  let tolerance =
    Arg.(
      value
      & opt float 15.0
      & info [ "tolerance" ] ~docv:"PCT"
          ~doc:"Relative noise tolerance in percent (default 15).")
  in
  let update =
    Arg.(
      value & flag
      & info [ "update-baseline" ]
          ~doc:"Copy the given documents into the baseline directory instead of checking.")
  in
  let read_file path =
    try Ok (In_channel.with_open_bin path In_channel.input_all)
    with Sys_error msg -> Error msg
  in
  let run files baseline tolerance update obs =
    setup_logs ();
    with_obs ~cmd:"bench-check" obs @@ fun () ->
    if tolerance < 0.0 || Float.is_nan tolerance then begin
      prerr_endline "tinflow: --tolerance must be non-negative";
      exit 2
    end;
    (* No file arguments: the baseline documents this directory also
       holds, naming the ones it does not. *)
    let files =
      if files <> [] then files
      else
        let names =
          try Sys.readdir baseline
          with Sys_error msg ->
            prerr_endline ("tinflow: " ^ msg);
            exit 2
        in
        Array.sort compare names;
        Array.to_list names
        |> List.filter (fun f ->
               String.starts_with ~prefix:"BENCH_" f && Filename.check_suffix f ".json")
        |> List.filter (fun f ->
               let held = Sys.file_exists f in
               if not held then Printf.printf "%s: skipped (not in the current directory)\n" f;
               held)
    in
    if update then begin
      if not (Sys.file_exists baseline) then Sys.mkdir baseline 0o755;
      let code = ref 0 in
      List.iter
        (fun f ->
          match read_file f with
          | Error msg ->
              prerr_endline ("tinflow: " ^ msg);
              code := 2
          | Ok contents -> (
              (* Parse before committing: a baseline that bench-check
                 itself cannot read is worse than none. *)
              match Json.parse contents with
              | Error msg ->
                  Printf.eprintf "tinflow: %s: %s\n" f msg;
                  code := 2
              | Ok _ ->
                  let dst = Filename.concat baseline (Filename.basename f) in
                  Out_channel.with_open_bin dst (fun oc ->
                      Out_channel.output_string oc contents);
                  Printf.printf "baseline updated: %s -> %s\n" f dst))
        files;
      !code
    end
    else begin
      let regressed = ref 0 and drifted = ref 0 and missing = ref 0 in
      List.iter
        (fun f ->
          let base_path = Filename.concat baseline (Filename.basename f) in
          if not (Sys.file_exists base_path) then begin
            Printf.printf "%s: no baseline at %s (run with --update-baseline to create it)\n" f
              base_path;
            incr missing
          end
          else
            match (read_file base_path, read_file f) with
            | Error msg, _ | _, Error msg ->
                prerr_endline ("tinflow: " ^ msg);
                exit 2
            | Ok base_raw, Ok cur_raw -> (
                match (Json.parse base_raw, Json.parse cur_raw) with
                | Error msg, _ ->
                    Printf.eprintf "tinflow: %s: %s\n" base_path msg;
                    exit 2
                | _, Error msg ->
                    Printf.eprintf "tinflow: %s: %s\n" f msg;
                    exit 2
                | Ok base_doc, Ok cur_doc ->
                    Option.iter
                      (fun reason ->
                        Printf.eprintf "tinflow: %s vs %s: %s\n" f base_path reason;
                        exit 2)
                      (Regress.header_mismatch ~baseline:base_doc ~current:cur_doc);
                    let rows =
                      Regress.compare_docs ~tolerance_pct:tolerance ~baseline:base_doc
                        ~current:cur_doc ()
                    in
                    print_string
                      (Regress.render_table
                         ~title:
                           (Printf.sprintf "%s vs %s (tolerance %g%%)" f base_path tolerance)
                         rows);
                    let n_regressed = List.length (Regress.regressed rows)
                    and n_drifted = List.length (Regress.drifted rows) in
                    regressed := !regressed + n_regressed;
                    drifted := !drifted + n_drifted;
                    Event.emit "bench_check.result"
                      ~fields:
                        [
                          ("file", Json.Str f);
                          ("metrics", Json.int (List.length rows));
                          ("drifted", Json.int n_drifted);
                          ("regressed", Json.int n_regressed);
                        ]))
        files;
      if !drifted > 0 || !regressed > 0 then begin
        Printf.eprintf
          "tinflow: bench-check: %d exact metric(s) drifted, %d metric(s) regressed beyond \
           tolerance\n"
          !drifted !regressed;
        if !drifted > 0 then 3 else 1
      end
      else begin
        if !missing = 0 then print_endline "bench-check: ok";
        0
      end
    end
  in
  Cmd.v
    (Cmd.info "bench-check"
       ~exits:
         (Cmd.Exit.info 0 ~doc:"every exact metric equals its baseline and no timing regressed."
         :: Cmd.Exit.info 1
              ~doc:"a timing, footprint or rate regressed beyond $(b,--tolerance); no exact drift."
         :: Cmd.Exit.info 2
              ~doc:
                "a usage error: an unreadable document or baseline directory, a benchmark or \
                 scale header that differs from the baseline's, or a negative $(b,--tolerance)."
         :: Cmd.Exit.info 3
              ~doc:
                "an exact metric (a count: instances, pivots, spills, rebuilds, rows) differs \
                 from its baseline or is missing."
         :: List.filter (fun i -> Cmd.Exit.info_code i <> Cmd.Exit.ok) Cmd.Exit.defaults)
       ~doc:
         "Compare fresh benchmark JSON documents against the committed baseline: fail when an \
          exact count differs, or a timing regresses beyond a noise tolerance")
    Term.(const run $ files $ baseline $ tolerance $ update $ obs_term)

(* --- obs report --- *)

let obs_report_cmd =
  let trace_arg =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"TRACE"
          ~doc:"Exported trace to analyze: a --trace file or a flight-recorder dump.")
  in
  let top =
    Arg.(
      value & opt int 10
      & info [ "top" ] ~docv:"N"
          ~doc:"Number of span names in the self-time table (the JSON report lists every name).")
  in
  let json_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:
            "Also write the report as JSON (schema tinflow.obs.report/v1) to $(docv); '-' \
             writes it to stdout instead of the human tables.  The _ms field naming makes a \
             report diffable with $(b,tinflow bench-check).")
  in
  let run trace top json obs =
    setup_logs ();
    with_obs ~cmd:"obs.report" obs @@ fun () ->
    let doc =
      match Tin_util.Json.parse (In_channel.with_open_bin trace In_channel.input_all) with
      | Ok doc -> Ok doc
      | Error e -> Error (trace ^ ": " ^ e)
      | exception Sys_error msg -> Error msg
    in
    match Result.bind doc Tin_obs.Report.analyze with
    | Error msg ->
        prerr_endline ("tinflow: obs report: " ^ msg);
        2
    | Ok report ->
        (match json with
        | Some "-" -> print_string (Tin_obs.Report.to_json report)
        | Some path ->
            Out_channel.with_open_bin path (fun oc ->
                Out_channel.output_string oc (Tin_obs.Report.to_json report));
            print_string (Tin_obs.Report.render ~top report);
            Printf.eprintf "tinflow: report written to %s\n%!" path
        | None -> print_string (Tin_obs.Report.render ~top report));
        (* Broken stitching is a finding, not a formatting detail:
           surface it in the exit code so CI can assert on it. *)
        if report.Tin_obs.Report.orphans > 0 then begin
          Printf.eprintf "tinflow: obs report: %d orphaned span(s) (parent chain broken)\n%!"
            report.Tin_obs.Report.orphans;
          1
        end
        else 0
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:
         "Analyze an exported trace: critical path, per-domain utilization, batch chunk \
          balance, top span self-times")
    Term.(const run $ trace_arg $ top $ json_out $ obs_term)

let obs_cmd =
  Cmd.group
    (Cmd.info "obs" ~doc:"Observability tooling (offline trace analysis)")
    [ obs_report_cmd ]

(* --- dot --- *)

let dot_cmd =
  let source = Arg.(value & opt (some int) None & info [ "source" ] ~docv:"V" ~doc:"Highlight as source.") in
  let sink = Arg.(value & opt (some int) None & info [ "sink" ] ~docv:"V" ~doc:"Highlight as sink.") in
  let run file source sink obs =
    setup_logs ();
    with_obs ~cmd:"dot" obs @@ fun () ->
    let g = load_graph file in
    print_string (Io.to_dot ?source ?sink g);
    0
  in
  Cmd.v
    (Cmd.info "dot" ~doc:"Render an interaction network to GraphViz")
    Term.(const run $ file_arg $ source $ sink $ obs_term)

let () =
  let info =
    Cmd.info "tinflow" ~version:"1.0.0"
      ~doc:"Flow computation in temporal interaction networks (ICDE 2021 reproduction)"
  in
  exit
    (Cmd.eval'
       (Cmd.group info
          [
            flow_cmd;
            batch_cmd;
            paths_cmd;
            provenance_cmd;
            profile_cmd;
            patterns_cmd;
            serve_cmd;
            verify_cmd;
            generate_cmd;
            convert_cmd;
            bench_check_cmd;
            obs_cmd;
            dot_cmd;
          ]))
