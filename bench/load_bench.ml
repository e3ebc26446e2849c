(* Load-path benchmark: CSV parse vs binary snapshot load on the
   synthetic datasets.  Results go to BENCH_load.json for the
   bench-check regression gate; the committed baseline pins the
   snapshot speedup (the tentpole claim: loading a .tinb is >= 5x
   faster than re-parsing the CSV).

   Per dataset the generated network is dumped once as CSV and once as
   a .tinb snapshot into temp files, then each format is loaded [reps]
   times through the auto-detecting [Io.load_compact]; the minimum
   wall time is reported (minimum is the stable statistic for
   load-path timing).  The two loads must reconstruct equal
   substrates.  Peak RSS is the max-tracking [runtime_peak_rss_bytes]
   gauge, sampled after every load. *)

module Timer = Tin_util.Timer
module Table = Tin_util.Table
module Obs = Tin_obs.Obs

type result = {
  name : string;
  n_interactions : int;
  csv_bytes : int;
  snapshot_bytes : int;
  csv_parse_ms : float;
  snapshot_load_ms : float;
  speedup : float;
  peak_rss_bytes : float;
}

let file_bytes path = In_channel.with_open_bin path In_channel.length |> Int64.to_int

let time_best ~reps f =
  let best = ref infinity in
  let out = ref None in
  for _ = 1 to reps do
    let v, ms = Timer.time_ms f in
    if ms < !best then best := ms;
    out := Some v;
    (* Keep the RSS high-water mark fresh while the loaded structures
       are still live. *)
    Obs.Runtime.sample ()
  done;
  (Option.get !out, !best)

let measure ~reps (d : Workload.dataset) =
  let name = d.Workload.spec.Tin_datasets.Spec.name in
  let c0 = d.Workload.net in
  let g = Compact.to_graph c0 in
  let csv = Filename.temp_file "tinflow_load" ".csv" in
  let snap = Filename.temp_file "tinflow_load" ".tinb" in
  Fun.protect
    ~finally:(fun () ->
      (try Sys.remove csv with Sys_error _ -> ());
      try Sys.remove snap with Sys_error _ -> ())
    (fun () ->
      Io.save_csv csv g;
      Snapshot.save snap c0;
      let c_csv, csv_parse_ms = time_best ~reps (fun () -> Io.load_compact csv) in
      let c_snap, snapshot_load_ms = time_best ~reps (fun () -> Io.load_compact snap) in
      (* Equality is part of the benchmark contract: a faster loader
         that reconstructs a different network is a bug, not a win. *)
      if not (Compact.equal c_csv c0) then failwith ("CSV round-trip drift on " ^ name);
      if not (Compact.equal c_snap c0) then failwith ("snapshot round-trip drift on " ^ name);
      let peak_rss_bytes =
        match List.assoc_opt "runtime_peak_rss_bytes" (Obs.gauges ()) with
        | Some v -> v
        | None -> 0.0 (* /proc/self/statm absent (non-Linux) *)
      in
      {
        name;
        n_interactions = Compact.n_interactions c0;
        csv_bytes = file_bytes csv;
        snapshot_bytes = file_bytes snap;
        csv_parse_ms;
        snapshot_load_ms;
        speedup = (if snapshot_load_ms > 0.0 then csv_parse_ms /. snapshot_load_ms else 0.0);
        peak_rss_bytes;
      })

let result_json r =
  let open Tin_util.Json in
  Obj
    [
      ("name", Str r.name); ("n_interactions", int r.n_interactions);
      ("csv_bytes", int r.csv_bytes); ("snapshot_bytes", int r.snapshot_bytes);
      ("csv_parse_ms", Num r.csv_parse_ms);
      ("snapshot_load_ms", Num r.snapshot_load_ms); ("speedup", Num r.speedup);
      ("peak_rss_bytes", Num r.peak_rss_bytes);
    ]

let run record datasets =
  let reps = 5 in
  Printf.printf "Measuring load paths (CSV parse vs snapshot load, best of %d)...\n%!" reps;
  Obs.reset ();
  Obs.enable ();
  let results = List.map (measure ~reps) datasets in
  Obs.disable ();
  Obs.reset ();
  Table.print ~title:"Network load paths"
    ~header:[ "dataset"; "interactions"; "csv"; "tinb"; "csv parse"; "tinb load"; "speedup" ]
    (List.map
       (fun r ->
         [
           r.name;
           string_of_int r.n_interactions;
           Printf.sprintf "%.1f MB" (float_of_int r.csv_bytes /. 1e6);
           Printf.sprintf "%.1f MB" (float_of_int r.snapshot_bytes /. 1e6);
           Table.fmt_ms r.csv_parse_ms;
           Table.fmt_ms r.snapshot_load_ms;
           Printf.sprintf "%.1fx" r.speedup;
         ])
       results);
  List.iter
    (fun r ->
      if r.speedup < 5.0 then
        Printf.printf "  WARNING: %s snapshot speedup %.1fx below the 5x target\n" r.name
          r.speedup)
    results;
  Record.write record ~name:"load" ~benchmark:"load"
    [
      ("snapshot_version", Tin_util.Json.int Snapshot.version);
      ("datasets", Tin_util.Json.Arr (List.map result_json results));
    ]
