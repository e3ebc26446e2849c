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

(* JSON output, same hand-rolled shape as the other bench documents. *)

let json_escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let json_float f = if Float.is_finite f then Printf.sprintf "%.6g" f else "null"

let write_json path ~scale_name results =
  let b = Buffer.create 1024 in
  let add fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  add "{\n";
  add "  \"benchmark\": \"load\",\n";
  add "  \"scale\": \"%s\",\n" (json_escape scale_name);
  add "  \"snapshot_version\": %d,\n" Snapshot.version;
  add "  \"datasets\": [\n";
  List.iteri
    (fun i r ->
      add "    {\n";
      add "      \"name\": \"%s\",\n" (json_escape r.name);
      add "      \"n_interactions\": %d,\n" r.n_interactions;
      add "      \"csv_bytes\": %d,\n" r.csv_bytes;
      add "      \"snapshot_bytes\": %d,\n" r.snapshot_bytes;
      add "      \"csv_parse_ms\": %s,\n" (json_float r.csv_parse_ms);
      add "      \"snapshot_load_ms\": %s,\n" (json_float r.snapshot_load_ms);
      add "      \"speedup\": %s,\n" (json_float r.speedup);
      add "      \"peak_rss_bytes\": %s\n" (json_float r.peak_rss_bytes);
      add "    }%s\n" (if i < List.length results - 1 then "," else ""))
    results;
  add "  ]\n";
  add "}\n";
  let oc = open_out path in
  output_string oc (Buffer.contents b);
  close_out oc

let run ?(json = "BENCH_load.json") ~scale_name datasets =
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
  write_json json ~scale_name results;
  Printf.printf "Load benchmark written to %s\n" json
