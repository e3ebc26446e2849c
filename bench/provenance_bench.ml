(* Provenance-engine benchmark: sustained interactions/second of the
   policy-driven provenance scan (Tin_core.Provenance), per selection
   policy, against the plain greedy scan of the same graph as the
   no-attribution baseline.  Results go to BENCH_provenance.json for
   the bench-check regression gate; spill and peak-entry counts are
   deterministic for the fixed seed, so the baseline also pins the
   memory-bounding behaviour. *)

module Prov = Tin_core.Provenance
module Greedy = Tin_core.Greedy
module Timer = Tin_util.Timer
module Table = Tin_util.Table
module Prng = Tin_util.Prng

type result = {
  name : string;
  interactions : int;
  scan_ms : float;
  inter_per_s : float;
  spills : int;
  peak_entries : int;
}

(* Strictly increasing times over a modest vertex set: buffers fill,
   drain and re-fill, so the selection policies do real work and the
   entry budget spills on the hub vertices. *)
let make_graph ~n ~vertices rng =
  let g = ref Graph.empty in
  for i = 0 to n - 1 do
    let s = Prng.int rng vertices in
    let d = Prng.int rng vertices in
    let d = if d = s then (d + 1) mod vertices else d in
    g :=
      Graph.add_interaction !g ~src:s ~dst:d
        (Interaction.make ~time:(float_of_int i) ~qty:(float_of_int (1 + Prng.int rng 9)))
  done;
  !g

let scenario ~g ~n name run =
  let r, scan_ms = Timer.time_ms (fun () -> run g) in
  {
    name;
    interactions = n;
    scan_ms;
    inter_per_s = float_of_int n /. (scan_ms /. 1000.0);
    spills = r.Prov.spills;
    peak_entries = r.Prov.peak_entries;
  }

let result_json r =
  let open Tin_util.Json in
  Obj
    [
      ("name", Str r.name); ("interactions", int r.interactions); ("spills", int r.spills);
      ("peak_entries", int r.peak_entries); ("scan_ms", Num r.scan_ms);
      ("inter_per_s", Num r.inter_per_s);
    ]

let run record ~quick =
  Printf.printf "Provenance scan: policy-driven origin attribution vs plain greedy scan\n%!";
  let rng = Prng.create ~seed:42 in
  let n = if quick then 30_000 else 200_000 in
  let vertices = 500 in
  let source = 0 and sink = 1 in
  let g = make_graph ~n ~vertices rng in
  let policies = [ Prov.Lrb; Prov.Mrb; Prov.Proportional ] in
  let open_world =
    List.map
      (fun p -> scenario ~g ~n (Prov.policy_name p) (Prov.run ~policy:p ~absorb:sink))
      policies
  in
  let rooted =
    scenario ~g ~n "prop-rooted" (Prov.run ~policy:Prov.Proportional ~source ~absorb:sink)
  in
  (* The no-attribution floor: the plain greedy scan of the same
     graph, for the overhead column. *)
  let _, greedy_ms = Timer.time_ms (fun () -> Greedy.flow g ~source ~sink) in
  let greedy_row =
    {
      name = "greedy-baseline";
      interactions = n;
      scan_ms = greedy_ms;
      inter_per_s = float_of_int n /. (greedy_ms /. 1000.0);
      spills = 0;
      peak_entries = 0;
    }
  in
  let results = open_world @ [ rooted; greedy_row ] in
  Table.print
    ~title:
      (Printf.sprintf "Provenance scan, %d interactions over %d vertices (budget %d)" n
         vertices Prov.default_budget)
    ~header:[ "Scenario"; "Scan ms"; "Inter/s"; "Overhead"; "Spills"; "Peak entries" ]
    (List.map
       (fun r ->
         [
           r.name;
           Printf.sprintf "%.1f" r.scan_ms;
           Printf.sprintf "%.0f" r.inter_per_s;
           Printf.sprintf "%.1fx" (r.scan_ms /. greedy_ms);
           string_of_int r.spills;
           string_of_int r.peak_entries;
         ])
       results);
  Record.write record ~name:"provenance" ~benchmark:"provenance"
    [ ("scenarios", Tin_util.Json.Arr (List.map result_json results)) ]
