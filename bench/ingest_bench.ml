(* Streaming-ingestion benchmark: sustained interactions/second of the
   [tinflow serve] daemon's incremental path (Greedy.Kernel.push, the
   window kept as one scan-ordered array) against the naive baseline
   that rebuilds the windowed greedy flow from scratch after every
   chunk.  Results go to BENCH_ingest.json for the bench-check
   regression gate; the committed baseline pins the incremental
   speedup, and CI requires its interaction, chunk, rebuild, tick,
   alert and recomputed-row counts exactly.

   Three scenarios: an unbounded window (pure append — the daemon never
   rebuilds), a sliding window covering ~10% of the stream (every
   chunk evicts, so the daemon pays its rebuild-on-observe fallback, an
   in-place replay of the window, and must still come out ahead), and
   [ticked], an unbounded window with a cadence tick every 1000
   interactions that delta-updates the path tables and evaluates P2,
   P3 and RP3 (the set perfbench's serve workload uses), against a
   baseline that precomputes the tables of the cumulative net afresh
   at each tick.  Each chunk ends with one flow observation, matching
   the monitoring loop of the daemon; both sides must report the
   identical (bit-for-bit) flow sequence and, at every tick, the same
   alerts with the same instance counts and total flows. *)

module Daemon = Tin_daemon.Daemon
module Ingest = Tin_daemon.Ingest
module Greedy = Tin_core.Greedy
module Window = Tin_core.Window
module Catalog = Tin_patterns.Catalog
module Timer = Tin_util.Timer
module Table = Tin_util.Table
module Prng = Tin_util.Prng

type result = {
  name : string;
  interactions : int;
  chunks : int;
  daemon_per_s : float;
  baseline_per_s : float;
  speedup : float;
  rebuilds : int;
  ticks : int;
  alerts : int;
  rows_recomputed : int;
}

(* The ticked scenario's daemon settings; the instance cap is the
   daemon's default. *)
let cadence = 1000
let patterns = Catalog.[ Rigid P2; Rigid P3; Relaxed RP3 ]

(* Strictly increasing times: the stream never ties across chunks, so
   the daemon's dirty-flag fallback fires only on evictions — the
   window scenario measures exactly that path. *)
let make_stream ~n ~vertices rng =
  Array.init n (fun i ->
      let s = Prng.int rng vertices in
      let d = Prng.int rng vertices in
      let d = if d = s then (d + 1) mod vertices else d in
      {
        Ingest.src = s;
        dst = d;
        inter =
          Interaction.make ~time:(float_of_int i)
            ~qty:(float_of_int (1 + Prng.int rng 9));
      })

let chunks_of stream ~chunk =
  let n = Array.length stream in
  List.init
    ((n + chunk - 1) / chunk)
    (fun i -> Array.to_list (Array.sub stream (i * chunk) (min chunk (n - (i * chunk)))))

(* Per chunk: the observed flow and the alerts of the tick the chunk
   triggered, as (pattern, instances, total flow). *)
let run_daemon ~source ~sink ~window ~ticked chunks =
  let cadence, patterns = if ticked then (cadence, patterns) else (0, []) in
  let d = Daemon.create (Daemon.config ~source ~sink ?window ~cadence ~patterns ()) in
  let out =
    List.map
      (fun c ->
        let r = Daemon.ingest d c in
        ( Daemon.flow d,
          List.map
            (fun (a : Daemon.alert) -> (a.Daemon.pattern, a.Daemon.instances, a.Daemon.total_flow))
            r.Daemon.alerts ))
      chunks
  in
  (out, Daemon.stats d)

(* The naive server: keep every interaction, re-restrict and re-run
   the batch greedy scan from scratch at each observation, and at each
   tick precompute the tables of the cumulative net afresh and search
   them with the daemon's rule for an alert: one domain, the daemon's
   default cap. *)
let run_baseline ~source ~sink ~window ~ticked chunks =
  let limit = (Daemon.config ~source ~sink ()).Daemon.limit in
  let g = ref Graph.empty and entries = ref [] and since = ref 0 in
  let last = ref neg_infinity in
  List.map
    (fun chunk ->
      List.iter
        (fun e ->
          last := Float.max !last (Interaction.time e.Ingest.inter);
          g := Graph.add_interaction !g ~src:e.Ingest.src ~dst:e.Ingest.dst e.Ingest.inter;
          entries := (e.Ingest.src, e.Ingest.dst, e.Ingest.inter) :: !entries)
        chunk;
      let windowed =
        match window with
        | None -> !g
        | Some w -> Window.restrict ~from_time:(!last -. w) !g
      in
      since := !since + List.length chunk;
      let alerts =
        if ticked && !since >= cadence then begin
          since := 0;
          let net = Compact.of_entries !entries in
          let tables = Catalog.precompute net in
          List.filter_map
            (fun p ->
              let r = Catalog.pb ~jobs:1 ~limit net tables p in
              if r.Catalog.instances > 0 && r.Catalog.total_flow > 0. then
                Some (p, r.Catalog.instances, r.Catalog.total_flow)
              else None)
            patterns
        end
        else []
      in
      (Greedy.flow windowed ~source ~sink, alerts))
    chunks

let scenario ?(ticked = false) ~rng ~n ~chunk ~vertices name window =
  let stream = make_stream ~n ~vertices rng in
  let chunks = chunks_of stream ~chunk in
  let source = 0 and sink = 1 in
  let (daemon_out, stats), daemon_ms =
    Timer.time_ms (fun () -> run_daemon ~source ~sink ~window ~ticked chunks)
  in
  let baseline_out, baseline_ms =
    Timer.time_ms (fun () -> run_baseline ~source ~sink ~window ~ticked chunks)
  in
  (* Exactness guard: the incremental daemon must track the batch
     recomputation bit for bit, chunk after chunk, and raise the same
     alerts at every tick. *)
  List.iter2
    (fun (a, alerts_a) (b, alerts_b) ->
      if not (Float.equal a b) then
        failwith (Printf.sprintf "ingest bench: daemon %g <> baseline %g" a b);
      if
        not
          (List.equal
             (fun (p, i, f) (q, j, g) -> p = q && i = j && Float.equal f g)
             alerts_a alerts_b)
      then failwith (Printf.sprintf "ingest bench: %s alerts differ from the baseline" name))
    daemon_out baseline_out;
  {
    name;
    interactions = n;
    chunks = List.length chunks;
    daemon_per_s = float_of_int n /. (daemon_ms /. 1000.0);
    baseline_per_s = float_of_int n /. (baseline_ms /. 1000.0);
    speedup = baseline_ms /. daemon_ms;
    rebuilds = stats.Daemon.rebuilds_total;
    ticks = stats.Daemon.ticks_total;
    alerts = stats.Daemon.alerts_total;
    rows_recomputed = stats.Daemon.rows_recomputed_total;
  }

let result_json r =
  let open Tin_util.Json in
  Obj
    [
      ("name", Str r.name); ("interactions", int r.interactions); ("chunks", int r.chunks);
      ("rebuilds", int r.rebuilds); ("ticks", int r.ticks); ("alerts", int r.alerts);
      ("rows_recomputed", int r.rows_recomputed); ("daemon_ingest_per_s", Num r.daemon_per_s);
      ("baseline_rebuild_per_s", Num r.baseline_per_s); ("incremental_speedup", Num r.speedup);
    ]

let run record ~quick =
  Printf.printf "Streaming ingestion: incremental daemon vs rebuild-from-scratch baseline\n%!";
  let rng = Prng.create ~seed:42 in
  let n = if quick then 20_000 else 80_000 in
  let chunk = 100 and vertices = 400 in
  let results =
    [
      scenario ~rng ~n ~chunk ~vertices "unbounded" None;
      scenario ~rng ~n ~chunk ~vertices "windowed"
        (Some (float_of_int n /. 10.0));
      (* As many vertices per interaction at both scales, so the
         tables stay about the same size. *)
      scenario ~ticked:true ~rng ~n ~chunk ~vertices:(n / 50) "ticked" None;
    ]
  in
  Table.print ~title:(Printf.sprintf "Sustained ingestion, %d interactions in chunks of %d" n chunk)
    ~header:[ "Scenario"; "Daemon/s"; "Baseline/s"; "Speedup"; "Rebuilds"; "Ticks"; "Alerts" ]
    (List.map
       (fun r ->
         [
           r.name;
           Printf.sprintf "%.0f" r.daemon_per_s;
           Printf.sprintf "%.0f" r.baseline_per_s;
           Printf.sprintf "%.1fx" r.speedup;
           string_of_int r.rebuilds;
           string_of_int r.ticks;
           string_of_int r.alerts;
         ])
       results);
  Record.write record ~name:"ingest" ~benchmark:"ingest"
    [ ("scenarios", Tin_util.Json.Arr (List.map result_json results)) ]
