(* Offline trace analyzer behind [tinflow obs report]: reads a
   Chrome-trace export (a [--trace] file or a flight-recorder dump),
   reassembles the span tree from the trace ids the spans carry in
   their args, and answers the questions the multicore scaling work
   needs: where did the wall-clock go (critical path), how busy was
   each domain (utilization), how evenly did [Batch] chunks spread
   (imbalance), and which span names dominate once their children are
   subtracted (self-times). *)

module Json = Tin_util.Json
module Table = Tin_util.Table

type span = {
  name : string;
  ts_us : float;  (* start, µs, rebased by the exporter *)
  dur_us : float;
  tid : int;
  span_id : string;  (* "" when the trace predates trace contexts *)
  parent_id : string;
}

type domain_stat = {
  d_tid : int;
  d_spans : int;
  d_busy_us : float;  (* union of span intervals, not their sum *)
  d_utilization : float;  (* busy / whole-trace wall *)
}

type chunk_stats = {
  c_count : int;
  c_mean_us : float;
  c_min_us : float;
  c_max_us : float;
  c_stddev_us : float;
  c_per_domain_us : (int * float) list;  (* chunk time by domain, tid ascending *)
  c_imbalance : float;  (* max domain chunk time / mean domain chunk time *)
}

type self_time = { s_name : string; s_count : int; s_total_us : float; s_max_us : float }

type t = {
  spans : int;
  dropped : int;
  wall_us : float;
  roots : int;
  orphans : int;  (* spans whose parent chain does not reach the primary root *)
  root_name : string;  (* "" when the trace has no spans *)
  trace_id : string;
  critical_path : (span * float) list;  (* root-first; float = self contribution µs *)
  critical_path_us : float;
  domains : domain_stat list;
  chunks : chunk_stats option;
  self_times : self_time list;
}

(* ---- parsing ------------------------------------------------------ *)

let arg_str key args = Option.bind (Json.member key args) Json.str

let span_of_event j =
  match (Json.member "ph" j, Json.member "name" j) with
  | Some (Json.Str "X"), Some (Json.Str name) ->
      let numf key = Option.bind (Json.member key j) Json.num in
      let args = Option.value ~default:(Json.Obj []) (Json.member "args" j) in
      Some
        {
          name;
          ts_us = Option.value ~default:0.0 (numf "ts");
          dur_us = Option.value ~default:0.0 (numf "dur");
          tid = int_of_float (Option.value ~default:0.0 (numf "tid"));
          span_id = Option.value ~default:"" (arg_str "span_id" args);
          parent_id = Option.value ~default:"" (arg_str "parent_id" args);
        }
  | _ -> None

let spans_of_doc doc =
  match Json.member "traceEvents" doc with
  | Some (Json.Arr evs) -> Ok (List.filter_map span_of_event evs)
  | _ -> Error "not a Chrome trace: no traceEvents array"

(* ---- interval union (per-domain busy time) ------------------------ *)

let union_us intervals =
  let sorted = List.sort (fun (a, _) (b, _) -> Float.compare a b) intervals in
  let busy, hi =
    List.fold_left
      (fun (busy, hi) (s, e) ->
        if s > hi then (busy +. (e -. s), e)
        else if e > hi then (busy +. (e -. hi), e)
        else (busy, hi))
      (0.0, Float.neg_infinity) sorted
  in
  ignore hi;
  busy

(* ---- analysis ----------------------------------------------------- *)

let span_end s = s.ts_us +. s.dur_us

let analyze doc =
  match spans_of_doc doc with
  | Error _ as e -> e
  | Ok [] -> Error "trace contains no complete span events"
  | Ok spans ->
      let dropped =
        match Option.bind (Json.member "dropped_events" doc) Json.num with
        | Some d -> int_of_float d
        | None -> 0
      in
      let n = List.length spans in
      let t_min = List.fold_left (fun a s -> Float.min a s.ts_us) Float.infinity spans in
      let t_max = List.fold_left (fun a s -> Float.max a (span_end s)) Float.neg_infinity spans in
      let wall_us = Float.max 0.0 (t_max -. t_min) in
      (* Span tree: children indexed by parent span id.  Spans without
         ids (pre-trace-context exports) all classify as roots and the
         tree degenerates gracefully to a flat list. *)
      let by_id = Hashtbl.create n in
      List.iter (fun s -> if s.span_id <> "" then Hashtbl.replace by_id s.span_id s) spans;
      let children = Hashtbl.create n in
      let is_root s = s.parent_id = "" || not (Hashtbl.mem by_id s.parent_id) in
      List.iter
        (fun s ->
          if not (is_root s) then
            Hashtbl.replace children s.parent_id
              (s :: Option.value ~default:[] (Hashtbl.find_opt children s.parent_id)))
        spans;
      let roots = List.filter is_root spans in
      let primary =
        List.fold_left (fun best s -> if s.dur_us > best.dur_us then s else best)
          (List.hd roots) roots
      in
      (* Orphans: spans whose parent chain ends at some other root —
         broken stitching if everything was recorded under one
         request.  Chain-walk with a step bound so a cyclic (corrupt)
         input terminates. *)
      let reaches_primary s =
        let rec up s steps =
          if steps > n then false
          else if s.span_id <> "" && s.span_id = primary.span_id then true
          else if is_root s then false
          else up (Hashtbl.find by_id s.parent_id) (steps + 1)
        in
        up s 0
      in
      let orphans = List.length (List.filter (fun s -> not (reaches_primary s)) spans) in
      (* Critical path: from the primary root, repeatedly descend into
         the child that finishes last — the chain that gated the
         request's end time.  A node's contribution is its duration
         minus the chosen child's (clamped: clock skew across domains
         can make a child appear to outlive its parent). *)
      let critical_path =
        let rec down s acc =
          let kids =
            if s.span_id = "" then []
            else Option.value ~default:[] (Hashtbl.find_opt children s.span_id)
          in
          match kids with
          | [] -> List.rev ((s, s.dur_us) :: acc)
          | _ ->
              let last =
                List.fold_left
                  (fun best k -> if span_end k > span_end best then k else best)
                  (List.hd kids) kids
              in
              down last ((s, Float.max 0.0 (s.dur_us -. last.dur_us)) :: acc)
        in
        down primary []
      in
      let critical_path_us = primary.dur_us in
      (* Per-domain busy time as an interval union: nested spans on one
         domain must not double-count. *)
      let tids = List.sort_uniq compare (List.map (fun s -> s.tid) spans) in
      let domains =
        List.map
          (fun tid ->
            let mine = List.filter (fun s -> s.tid = tid) spans in
            let busy = union_us (List.map (fun s -> (s.ts_us, span_end s)) mine) in
            {
              d_tid = tid;
              d_spans = List.length mine;
              d_busy_us = busy;
              d_utilization = (if wall_us > 0.0 then busy /. wall_us else 0.0);
            })
          tids
      in
      (* Batch chunk imbalance: chunk spans never nest within each
         other on a domain, so per-domain sums are exact. *)
      let chunks =
        let cs =
          List.filter
            (fun s -> s.name = "batch.map.chunk" || s.name = "batch.map_reduce.chunk")
            spans
        in
        match cs with
        | [] -> None
        | _ ->
            let durs = List.map (fun s -> s.dur_us) cs in
            let count = List.length cs in
            let total = List.fold_left ( +. ) 0.0 durs in
            let mean = total /. float_of_int count in
            let var =
              List.fold_left (fun a d -> a +. ((d -. mean) ** 2.0)) 0.0 durs
              /. float_of_int count
            in
            let per_domain =
              List.filter_map
                (fun tid ->
                  match List.filter (fun s -> s.tid = tid) cs with
                  | [] -> None
                  | mine -> Some (tid, List.fold_left (fun a s -> a +. s.dur_us) 0.0 mine))
                tids
            in
            let dtotals = List.map snd per_domain in
            let dmean =
              List.fold_left ( +. ) 0.0 dtotals /. float_of_int (List.length dtotals)
            in
            let dmax = List.fold_left Float.max 0.0 dtotals in
            Some
              {
                c_count = count;
                c_mean_us = mean;
                c_min_us = List.fold_left Float.min Float.infinity durs;
                c_max_us = List.fold_left Float.max 0.0 durs;
                c_stddev_us = Float.sqrt var;
                c_per_domain_us = per_domain;
                c_imbalance = (if dmean > 0.0 then dmax /. dmean else 1.0);
              }
      in
      (* Self time: duration minus the union of the children's
         intervals (union, not sum — parallel children of one span
         overlap), aggregated by span name. *)
      let tbl = Hashtbl.create 32 in
      List.iter
        (fun s ->
          let kids =
            if s.span_id = "" then []
            else Option.value ~default:[] (Hashtbl.find_opt children s.span_id)
          in
          let covered = union_us (List.map (fun k -> (k.ts_us, span_end k)) kids) in
          let self = Float.max 0.0 (s.dur_us -. covered) in
          let cur =
            Option.value ~default:(0, 0.0, 0.0) (Hashtbl.find_opt tbl s.name)
          in
          let c, tot, mx = cur in
          Hashtbl.replace tbl s.name (c + 1, tot +. self, Float.max mx self))
        spans;
      let self_times =
        Hashtbl.fold
          (fun name (c, tot, mx) acc ->
            { s_name = name; s_count = c; s_total_us = tot; s_max_us = mx } :: acc)
          tbl []
        |> List.sort (fun a b -> Float.compare b.s_total_us a.s_total_us)
      in
      Ok
        {
          spans = n;
          dropped;
          wall_us;
          roots = List.length roots;
          orphans;
          root_name = primary.name;
          trace_id =
            (match Json.member "traceEvents" doc with
            | Some (Json.Arr evs) ->
                List.find_map
                  (fun j ->
                    match Json.member "args" j with
                    | Some args -> arg_str "trace_id" args
                    | None -> None)
                  evs
                |> Option.value ~default:""
            | _ -> "");
          critical_path;
          critical_path_us;
          domains;
          chunks;
          self_times;
        }

(* ---- JSON output -------------------------------------------------- *)

let ms us = us /. 1e3

let to_json (r : t) =
  let open Json in
  let ms_num us = Num (ms us) in
  let mean_util =
    match r.domains with
    | [] -> 0.0
    | ds ->
        List.fold_left (fun a d -> a +. d.d_utilization) 0.0 ds /. float_of_int (List.length ds)
  in
  let chunks (c : chunk_stats) =
    Obj
      [
        ("count", int c.c_count); ("mean_ms", ms_num c.c_mean_us); ("min_ms", ms_num c.c_min_us);
        ("max_ms", ms_num c.c_max_us); ("stddev_ms", ms_num c.c_stddev_us);
        ("imbalance", Num c.c_imbalance);
        ( "per_domain",
          Arr
            (List.map
               (fun (tid, us) -> Obj [ ("tid", int tid); ("chunk_ms", ms_num us) ])
               c.c_per_domain_us) );
      ]
  in
  to_string Indented
    (Obj
       [
         ("schema", Str "tinflow.obs.report/v1");
         ( "trace",
           Obj
             [
               ("spans", int r.spans); ("dropped", int r.dropped); ("wall_ms", ms_num r.wall_us);
               ("roots", int r.roots); ("orphans", int r.orphans); ("root", Str r.root_name);
               ("trace_id", Str r.trace_id);
             ] );
         ("critical_path_ms", ms_num r.critical_path_us);
         ( "critical_path",
           Arr
             (List.map
                (fun (s, self) ->
                  Obj
                    [
                      ("name", Str s.name); ("tid", int s.tid); ("dur_ms", ms_num s.dur_us);
                      ("self_ms", ms_num self);
                    ])
                r.critical_path) );
         ( "domains",
           Arr
             (List.map
                (fun d ->
                  Obj
                    [
                      ("tid", int d.d_tid); ("spans", int d.d_spans);
                      ("busy_ms", ms_num d.d_busy_us); ("utilization", Num d.d_utilization);
                    ])
                r.domains) );
         ("utilization", Obj [ ("domains", int (List.length r.domains)); ("mean", Num mean_util) ]);
         ("chunks", match r.chunks with None -> Null | Some c -> chunks c);
         ( "self_times",
           Arr
             (List.map
                (fun s ->
                  Obj
                    [
                      ("name", Str s.s_name); ("count", int s.s_count);
                      ("self_ms", ms_num s.s_total_us); ("max_self_ms", ms_num s.s_max_us);
                    ])
                r.self_times) );
       ])

(* ---- human rendering ---------------------------------------------- *)

let pct f = Printf.sprintf "%.1f%%" (100.0 *. f)

let render ?(top = 10) (r : t) =
  let b = Buffer.create 2048 in
  Buffer.add_string b
    (Printf.sprintf "trace: %d span(s), %d dropped, wall %s, root \"%s\"%s\n" r.spans r.dropped
       (Table.fmt_ms (ms r.wall_us))
       r.root_name
       (if r.trace_id = "" then "" else ", trace " ^ r.trace_id));
  if r.roots > 1 then
    Buffer.add_string b
      (Printf.sprintf "note: %d root span(s), %d span(s) outside the primary tree\n" r.roots
         r.orphans);
  Buffer.add_string b
    (Table.render
       ~title:(Printf.sprintf "critical path (%s)" (Table.fmt_ms (ms r.critical_path_us)))
       ~header:[ "span"; "domain"; "duration"; "self"; "of path" ]
       (List.map
          (fun (s, self) ->
            [
              s.name;
              string_of_int s.tid;
              Table.fmt_ms (ms s.dur_us);
              Table.fmt_ms (ms self);
              (if r.critical_path_us > 0.0 then pct (self /. r.critical_path_us) else "-");
            ])
          r.critical_path));
  Buffer.add_string b
    (Table.render ~title:"per-domain utilization"
       ~header:[ "domain"; "spans"; "busy"; "utilization" ]
       (List.map
          (fun d ->
            [
              string_of_int d.d_tid;
              string_of_int d.d_spans;
              Table.fmt_ms (ms d.d_busy_us);
              pct d.d_utilization;
            ])
          r.domains));
  (match r.chunks with
  | None -> Buffer.add_string b "no batch chunk spans in this trace\n"
  | Some c ->
      Buffer.add_string b
        (Table.render ~title:"batch chunk balance"
           ~header:[ "metric"; "value" ]
           ([
              [ "chunks"; string_of_int c.c_count ];
              [ "mean"; Table.fmt_ms (ms c.c_mean_us) ];
              [ "min"; Table.fmt_ms (ms c.c_min_us) ];
              [ "max"; Table.fmt_ms (ms c.c_max_us) ];
              [ "stddev"; Table.fmt_ms (ms c.c_stddev_us) ];
              [ "imbalance (max/mean domain)"; Printf.sprintf "%.2f" c.c_imbalance ];
            ]
           @ List.map
               (fun (tid, us) ->
                 [ Printf.sprintf "domain %d chunk time" tid; Table.fmt_ms (ms us) ])
               c.c_per_domain_us)));
  Buffer.add_string b
    (Table.render ~title:"top span self-times"
       ~header:[ "span"; "count"; "self total"; "self max" ]
       (List.map
          (fun s ->
            [
              s.s_name;
              string_of_int s.s_count;
              Table.fmt_ms (ms s.s_total_us);
              Table.fmt_ms (ms s.s_max_us);
            ])
          (List.filteri (fun i _ -> i < top) r.self_times)));
  Buffer.contents b
