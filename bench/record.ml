(* The one writer of the machine-readable bench documents: every
   [<out_dir>/BENCH_<name>.json] starts with the same header (which
   benchmark, at which scale, on how many domains, under which OCaml),
   so [tinflow bench-check] can refuse to diff documents of different
   benchmarks or scales.  Indented, so committed baselines diff row by
   row. *)

module Json = Tin_util.Json

type t = { out_dir : string; scale : string }

let write t ~name ~benchmark fields =
  if not (Sys.file_exists t.out_dir) then Sys.mkdir t.out_dir 0o755;
  let path = Filename.concat t.out_dir ("BENCH_" ^ name ^ ".json") in
  let doc =
    Json.Obj
      (("benchmark", Json.Str benchmark)
      :: ("scale", Json.Str t.scale)
      :: ("domains_available", Json.int (Tin_core.Batch.recommended_jobs ()))
      :: ("ocaml_version", Json.Str Sys.ocaml_version)
      :: fields)
  in
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc (Json.to_string Json.Indented doc));
  Printf.printf "%s benchmark written to %s\n" benchmark path
