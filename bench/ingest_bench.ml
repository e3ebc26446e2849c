(* Streaming-ingestion benchmark: sustained interactions/second of the
   [tinflow serve] daemon's incremental path (Greedy.Kernel.push, the
   window kept as one scan-ordered array) against the naive baseline
   that rebuilds the windowed greedy flow from scratch after every
   chunk.  Results go to BENCH_ingest.json for the bench-check
   regression gate; the committed baseline pins the incremental
   speedup, and CI requires its interaction, chunk and rebuild counts
   exactly.

   Two scenarios: an unbounded window (pure append — the daemon never
   rebuilds) and a sliding window covering ~10% of the stream (every
   chunk evicts, so the daemon pays its rebuild-on-observe fallback, an
   in-place replay of the window, and must still come out ahead).  Each chunk ends with one flow
   observation, matching the monitoring loop of the daemon; both sides
   must report the identical (bit-for-bit) flow sequence. *)

module Daemon = Tin_daemon.Daemon
module Ingest = Tin_daemon.Ingest
module Greedy = Tin_core.Greedy
module Window = Tin_core.Window
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
}

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

let run_daemon ~source ~sink ~window chunks =
  let d = Daemon.create (Daemon.config ~source ~sink ?window ()) in
  let flows = List.map (fun c -> ignore (Daemon.ingest d c) ; Daemon.flow d) chunks in
  (flows, (Daemon.stats d).Daemon.rebuilds_total)

(* The naive server: keep every interaction, re-restrict and re-run
   the batch greedy scan from scratch at each observation. *)
let run_baseline ~source ~sink ~window chunks =
  let g = ref Graph.empty in
  let last = ref neg_infinity in
  List.map
    (fun chunk ->
      List.iter
        (fun e ->
          last := Float.max !last (Interaction.time e.Ingest.inter);
          g := Graph.add_interaction !g ~src:e.Ingest.src ~dst:e.Ingest.dst e.Ingest.inter)
        chunk;
      let windowed =
        match window with
        | None -> !g
        | Some w -> Window.restrict ~from_time:(!last -. w) !g
      in
      Greedy.flow windowed ~source ~sink)
    chunks

let scenario ~rng ~n ~chunk ~vertices name window =
  let stream = make_stream ~n ~vertices rng in
  let chunks = chunks_of stream ~chunk in
  let source = 0 and sink = 1 in
  let (daemon_flows, rebuilds), daemon_ms =
    Timer.time_ms (fun () -> run_daemon ~source ~sink ~window chunks)
  in
  let baseline_flows, baseline_ms =
    Timer.time_ms (fun () -> run_baseline ~source ~sink ~window chunks)
  in
  (* Exactness guard: the incremental daemon must track the batch
     recomputation bit for bit, chunk after chunk. *)
  List.iter2
    (fun a b ->
      if not (Float.equal a b) then
        failwith (Printf.sprintf "ingest bench: daemon %g <> baseline %g" a b))
    daemon_flows baseline_flows;
  {
    name;
    interactions = n;
    chunks = List.length chunks;
    daemon_per_s = float_of_int n /. (daemon_ms /. 1000.0);
    baseline_per_s = float_of_int n /. (baseline_ms /. 1000.0);
    speedup = baseline_ms /. daemon_ms;
    rebuilds;
  }

let result_json r =
  let open Tin_util.Json in
  Obj
    [
      ("name", Str r.name); ("interactions", int r.interactions); ("chunks", int r.chunks);
      ("rebuilds", int r.rebuilds); ("daemon_ingest_per_s", Num r.daemon_per_s);
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
    ]
  in
  Table.print ~title:(Printf.sprintf "Sustained ingestion, %d interactions in chunks of %d" n chunk)
    ~header:[ "Scenario"; "Daemon/s"; "Baseline/s"; "Speedup"; "Rebuilds" ]
    (List.map
       (fun r ->
         [
           r.name;
           Printf.sprintf "%.0f" r.daemon_per_s;
           Printf.sprintf "%.0f" r.baseline_per_s;
           Printf.sprintf "%.1fx" r.speedup;
           string_of_int r.rebuilds;
         ])
       results);
  Record.write record ~name:"ingest" ~benchmark:"ingest"
    [ ("scenarios", Tin_util.Json.Arr (List.map result_json results)) ]
