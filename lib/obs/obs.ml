module Stats = Tin_util.Stats
module Timer = Tin_util.Timer
module Table = Tin_util.Table
module Json = Tin_util.Json

let enabled : bool Atomic.t = Atomic.make false
let tracking () = Atomic.get enabled
let enable () = Atomic.set enabled true
let disable () = Atomic.set enabled false

(* Domains that have materialized at least one metric cell — the
   denominator the runtime sampler publishes as [runtime_obs_domains].
   The marker key increments once per domain, forced from every
   shard's cell initializer (cold path only). *)
let registered_domains = Atomic.make 0

let domain_marker : unit Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Atomic.incr registered_domains)

(* One cell per (metric, domain).  The domain-local key materializes a
   fresh cell on a domain's first touch and registers it in the
   metric's lock-free cell list; after that the hot path is a
   domain-local lookup plus a plain mutation of a cell no other domain
   writes.  Reads merge the full cell list.  Cells of finished domains
   stay registered (they still hold counts) — [reset] zeroes them in
   place rather than dropping them, so live domains keep their
   binding. *)
module Shard = struct
  type 'a t = { cells : 'a list Atomic.t; key : 'a Domain.DLS.key }

  let create make =
    let cells = Atomic.make [] in
    let key =
      Domain.DLS.new_key (fun () ->
          Domain.DLS.get domain_marker;
          let c = make () in
          let rec push () =
            let old = Atomic.get cells in
            if not (Atomic.compare_and_set cells old (c :: old)) then push ()
          in
          push ();
          c)
    in
    { cells; key }

  let local t = Domain.DLS.get t.key
  let all t = Atomic.get t.cells
end

(* --- label encoding ------------------------------------------------ *)

(* Prometheus-style label-value escaping, also used to render a family
   member's registered name (e.g. [lp_pivots{solver="sparse"}]).
   Control characters other than newline have no escape in the text
   exposition format; they are replaced so the output stays
   line-oriented. *)
let label_escape v =
  let b = Buffer.create (String.length v + 4) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string b "\\\\"
      | '"' -> Buffer.add_string b "\\\""
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 -> Buffer.add_char b '_'
      | c -> Buffer.add_char b c)
    v;
  Buffer.contents b

let encode_name base labels =
  if labels = [] then base
  else
    base ^ "{"
    ^ String.concat "," (List.map (fun (k, v) -> k ^ "=\"" ^ label_escape v ^ "\"") labels)
    ^ "}"

module Counter0 = struct
  type cell = { mutable n : int }
  type t = { name : string; base : string; labels : (string * string) list; shard : cell Shard.t }

  let incr c = if Atomic.get enabled then (Shard.local c.shard).n <- (Shard.local c.shard).n + 1

  let add c k =
    (* Checked even while disabled: a counter is monotone (Prometheus
       counters must never decrease), and misuse must not hide behind
       the runtime flag. *)
    if k < 0 then invalid_arg "Obs.Counter.add: negative increment on a monotone counter";
    if k <> 0 && Atomic.get enabled then begin
      let cell = Shard.local c.shard in
      cell.n <- cell.n + k
    end

  let value c = List.fold_left (fun acc cell -> acc + cell.n) 0 (Shard.all c.shard)
  let name c = c.name
  let reset c = List.iter (fun cell -> cell.n <- 0) (Shard.all c.shard)

  let create ~base ~labels name =
    { name; base; labels; shard = Shard.create (fun () -> { n = 0 }) }
end

(* Gauges are last-write-wins: each write stamps the writing domain's
   cell from a global sequence, and reads return the freshest cell.
   Stamp 0 means "never written since reset" — such cells (and wholly
   unwritten gauges) are invisible to the exporters. *)
let gauge_clock = Atomic.make 0

module Gauge0 = struct
  type cell = { mutable v : float; mutable stamp : int }
  type t = { name : string; shard : cell Shard.t }

  let bump () = 1 + Atomic.fetch_and_add gauge_clock 1

  let set g x =
    if Atomic.get enabled then begin
      let cell = Shard.local g.shard in
      cell.v <- x;
      cell.stamp <- bump ()
    end

  let freshest g =
    List.fold_left
      (fun acc (cell : cell) ->
        match acc with
        | Some (stamp, _) when stamp >= cell.stamp -> acc
        | _ -> if cell.stamp = 0 then acc else Some (cell.stamp, cell.v))
      None (Shard.all g.shard)

  let value g = match freshest g with Some (_, v) -> v | None -> Float.nan
  let name g = g.name

  let reset g =
    List.iter
      (fun (cell : cell) ->
        cell.v <- 0.0;
        cell.stamp <- 0)
      (Shard.all g.shard)

  let create name = { name; shard = Shard.create (fun () -> { v = 0.0; stamp = 0 }) }
end

module Histogram0 = struct
  type cell = { mutable acc : Stats.Acc.t }
  type t = { name : string; base : string; labels : (string * string) list; shard : cell Shard.t }

  let observe h x = if Atomic.get enabled then Stats.Acc.add (Shard.local h.shard).acc x

  let summary h =
    let merged = Stats.Acc.create () in
    List.iter (fun cell -> Stats.Acc.merge_into ~into:merged cell.acc) (Shard.all h.shard);
    Stats.Acc.summary merged

  let name h = h.name
  let reset h = List.iter (fun cell -> cell.acc <- Stats.Acc.create ()) (Shard.all h.shard)

  let create ~base ~labels name =
    { name; base; labels; shard = Shard.create (fun () -> { acc = Stats.Acc.create () }) }
end

type event = {
  name : string;
  ts_ns : int64;
  dur_ns : int64;
  tid : int;
  args : (string * string) list;
  trace_id : string;
  span_id : string;
  parent_id : string;
}

(* --- registry (creation/lookup only; never on the hot path) --- *)

type metric = C of Counter0.t | G of Gauge0.t | H of Histogram0.t

let registry : (string, metric) Hashtbl.t = Hashtbl.create 64

(* Family name -> label keys, so two [make_labeled] calls (possibly in
   different modules) agree on the label schema. *)
let families : (string, string list) Hashtbl.t = Hashtbl.create 16
let registry_lock = Mutex.create ()

let find_or_create name make wrap unwrap =
  Mutex.protect registry_lock (fun () ->
      match Hashtbl.find_opt registry name with
      | Some m -> (
          match unwrap m with
          | Some v -> v
          | None -> invalid_arg ("Obs: metric name registered with another kind: " ^ name))
      | None ->
          let v = make name in
          Hashtbl.replace registry name (wrap v);
          v)

type family_id = { fbase : string; fkeys : string list }

let register_family base keys =
  if keys = [] then invalid_arg ("Obs: labeled family needs at least one label: " ^ base);
  Mutex.protect registry_lock (fun () ->
      match Hashtbl.find_opt families base with
      | Some existing when existing = keys -> ()
      | Some _ -> invalid_arg ("Obs: family registered with different labels: " ^ base)
      | None -> Hashtbl.replace families base keys);
  { fbase = base; fkeys = keys }

let family_member fam values create wrap unwrap =
  if List.length values <> List.length fam.fkeys then
    invalid_arg
      (Printf.sprintf "Obs: family %s expects %d label value(s), got %d" fam.fbase
         (List.length fam.fkeys) (List.length values));
  let labels = List.combine fam.fkeys values in
  find_or_create (encode_name fam.fbase labels) (create ~base:fam.fbase ~labels) wrap unwrap

module Counter = struct
  include Counter0

  type family = family_id

  let un = function C c -> Some c | _ -> None
  let make name = find_or_create name (Counter0.create ~base:name ~labels:[]) (fun c -> C c) un
  let make_labeled name ~labels = register_family name labels
  let labeled fam values = family_member fam values Counter0.create (fun c -> C c) un
end

module Gauge = struct
  include Gauge0

  let make name =
    find_or_create name Gauge0.create (fun g -> G g) (function G g -> Some g | _ -> None)
end

module Histogram = struct
  include Histogram0

  type family = family_id

  let un = function H h -> Some h | _ -> None
  let make name = find_or_create name (Histogram0.create ~base:name ~labels:[]) (fun h -> H h) un
  let make_labeled name ~labels = register_family name labels
  let labeled fam values = family_member fam values Histogram0.create (fun h -> H h) un
end

(* --- span ring (the one span store) --------------------------------- *)

(* A bounded per-domain ring of the most recent span events.  It is
   armed independently of [enabled], so with tracing off spans still
   land here and a SIGUSR2 / crash / daemon-5xx dump can answer "what
   was it doing" after the fact; [--trace] raises its capacity and
   writes it out at exit.  Overwriting the oldest entry counts as a
   drop.  The ring keeps the newest spans, and on one domain a span
   completes before its parent, so a kept span's same-domain parent is
   kept too.  The dump/incident half of the [Flight] API lives at the
   end of this file (it needs the Chrome-trace emitter). *)
module Flight0 = struct
  let armed_flag = Atomic.make true
  let default_capacity = 4096
  let trace_capacity = 262_144
  let capacity = Atomic.make default_capacity

  type cell = {
    mutable ring : event array;
    mutable next : int;
    mutable filled : int;
    mutable dropped : int;
  }

  let dummy =
    {
      name = "";
      ts_ns = 0L;
      dur_ns = 0L;
      tid = 0;
      args = [];
      trace_id = "";
      span_id = "";
      parent_id = "";
    }

  let shard = Shard.create (fun () -> { ring = [||]; next = 0; filled = 0; dropped = 0 })

  (* The ring doubles up to [capacity] instead of starting full: every
     [Batch.map] call spawns fresh domains whose cells stay registered,
     and at [trace_capacity] a full ring per domain would pin megabytes
     each.  Below capacity the ring has never wrapped, so growing is
     one blit with the oldest entry at slot 0. *)
  let push e =
    let c = Shard.local shard in
    let len = Array.length c.ring in
    let cap = Atomic.get capacity in
    if c.filled = len && len < cap then begin
      let ring = Array.make (min cap (max 1 (2 * len))) dummy in
      Array.blit c.ring 0 ring 0 len;
      c.next <- len;
      c.ring <- ring
    end;
    let len = Array.length c.ring in
    if c.filled = len then c.dropped <- c.dropped + 1 else c.filled <- c.filled + 1;
    c.ring.(c.next) <- e;
    c.next <- (c.next + 1) mod len

  let armed () = Atomic.get armed_flag
  let arm () = Atomic.set armed_flag true
  let disarm () = Atomic.set armed_flag false
  let dropped () = List.fold_left (fun acc c -> acc + c.dropped) 0 (Shard.all shard)

  let events () =
    Shard.all shard
    |> List.concat_map (fun c ->
           (* A dump may read a ring while its domain grows it: take one
              snapshot of the array and clamp the indices to it.  A racy
              read can then miss or repeat an entry, never leave the
              array. *)
           let ring = c.ring in
           let len = Array.length ring in
           let filled = min c.filled len in
           let next = if len = 0 then 0 else c.next mod len in
           (* oldest first: once the ring has lapped, the slot at
              [next] holds the oldest retained entry *)
           List.init filled (fun i -> ring.((next - filled + i + len) mod len)))
    |> List.filter (fun e -> e != dummy)
    |> List.stable_sort (fun a b -> Int64.compare a.ts_ns b.ts_ns)

  let clear () =
    List.iter
      (fun c ->
        c.ring <- [||];
        c.next <- 0;
        c.filled <- 0;
        c.dropped <- 0)
      (Shard.all shard)

  (* Clears every materialized cell; new domains and cleared cells
     grow up to the new capacity. *)
  let set_capacity n =
    if n <= 0 then invalid_arg "Obs.Flight.set_capacity: capacity must be positive";
    Atomic.set capacity n;
    clear ()
end

(* Is anything listening?  True when the metrics layer is enabled or
   the flight recorder is armed — the guard for span instrumentation
   (counters/gauges/histograms still key off [enabled] alone). *)
let recording () = Atomic.get enabled || Atomic.get Flight0.armed_flag

module Span = struct
  (* Callers have checked [recording ()]: a span opened while either
     listener is on lands in the ring. *)
  let record ~trace_id ~span_id ~parent_id name args t0 t1 =
    Flight0.push
      {
        name;
        ts_ns = t0;
        dur_ns = Int64.sub t1 t0;
        tid = (Domain.self () :> int);
        args;
        trace_id;
        span_id;
        parent_id;
      }

  let with_ ?(args = []) name f =
    if not (recording ()) then f ()
    else begin
      (* Open a child context: inherit the trace id of the innermost
         open span on this domain (or start a fresh trace), install it
         for the duration of [f], and restore the parent on the way
         out — the manual save/restore mirrors [Trace_ctx.with_ctx]
         without the extra closure on this hot-ish path. *)
      let cell = Trace_ctx.cell () in
      let parent = !cell in
      let parent_id = match parent with Some p -> p.Trace_ctx.span_id | None -> "" in
      let ctx =
        match parent with
        | Some p -> { Trace_ctx.trace_id = p.Trace_ctx.trace_id; span_id = Trace_ctx.fresh_span_id () }
        | None ->
            { Trace_ctx.trace_id = Trace_ctx.fresh_trace_id (); span_id = Trace_ctx.fresh_span_id () }
      in
      cell := Some ctx;
      let t0 = Timer.now_ns () in
      match f () with
      | r ->
          let t1 = Timer.now_ns () in
          cell := parent;
          record ~trace_id:ctx.Trace_ctx.trace_id ~span_id:ctx.Trace_ctx.span_id ~parent_id name
            args t0 t1;
          r
      | exception e ->
          let bt = Printexc.get_raw_backtrace () in
          let t1 = Timer.now_ns () in
          cell := parent;
          record ~trace_id:ctx.Trace_ctx.trace_id ~span_id:ctx.Trace_ctx.span_id ~parent_id name
            (("exception", Printexc.to_string e) :: args)
            t0 t1;
          Printexc.raise_with_backtrace e bt
    end

  let with_root ?traceparent name f =
    if not (recording ()) then f ()
    else
      let base =
        match Option.bind traceparent Trace_ctx.of_traceparent with
        | Some ctx -> ctx
        | None -> { Trace_ctx.trace_id = Trace_ctx.fresh_trace_id (); span_id = "" }
      in
      Trace_ctx.with_ctx (Some base) (fun () -> with_ name f)

  let current_ids () =
    match Trace_ctx.current () with
    | Some c when c.Trace_ctx.span_id <> "" -> Some (c.Trace_ctx.trace_id, c.Trace_ctx.span_id)
    | _ -> None

  let current_traceparent () =
    match Trace_ctx.current () with
    | Some c when c.Trace_ctx.span_id <> "" -> Some (Trace_ctx.to_traceparent c)
    | _ -> None
end

(* --- reads --- *)

let metrics () =
  Mutex.protect registry_lock (fun () -> Hashtbl.fold (fun _ m acc -> m :: acc) registry [])

let counters () =
  metrics ()
  |> List.filter_map (function C c -> Some (Counter.name c, Counter.value c) | _ -> None)
  |> List.sort compare

(* A gauge set to NaN reads as "unset": NaN is the value [Gauge.value]
   returns for never-written gauges, and writing it explicitly is the
   supported way to retract a published value (e.g. ingest lag once
   the window empties) without a full [reset]. *)
let gauges () =
  metrics ()
  |> List.filter_map (function
       | G g -> (
           match Gauge0.freshest g with
           | Some (_, v) when not (Float.is_nan v) -> Some (Gauge.name g, v)
           | _ -> None)
       | _ -> None)
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let histograms () =
  metrics ()
  |> List.filter_map (function H h -> Some (Histogram.name h, Histogram.summary h) | _ -> None)
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let trace_events = Flight0.events
let dropped_events = Flight0.dropped

let reset () =
  List.iter
    (function C c -> Counter.reset c | G g -> Gauge0.reset g | H h -> Histogram.reset h)
    (metrics ());
  Flight0.clear ()

(* --- runtime telemetry sampler ------------------------------------- *)

module Runtime = struct
  let g_minor = Gauge.make "runtime_gc_minor_collections"
  let g_major = Gauge.make "runtime_gc_major_collections"
  let g_compact = Gauge.make "runtime_gc_compactions"
  let g_minor_words = Gauge.make "runtime_gc_minor_words"
  let g_promoted = Gauge.make "runtime_gc_promoted_words"
  let g_heap = Gauge.make "runtime_gc_heap_words"
  let g_domains = Gauge.make "runtime_obs_domains"
  let g_rss_pages = Gauge.make "runtime_rss_pages"
  let g_rss_bytes = Gauge.make "runtime_rss_bytes"
  let g_rss_peak = Gauge.make "runtime_peak_rss_bytes"

  (* Resident set size in pages: second field of /proc/self/statm
     (Linux; absent elsewhere, in which case the RSS gauges stay
     unset).  Byte conversion assumes the common 4 KiB page — the page
     count itself is exported alongside, so nothing is lost on
     large-page kernels. *)
  let rss_pages () =
    match open_in "/proc/self/statm" with
    | exception Sys_error _ -> None
    | ic ->
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () ->
            match input_line ic with
            | exception End_of_file -> None
            | line -> (
                match String.split_on_char ' ' line with
                | _ :: resident :: _ -> int_of_string_opt resident
                | _ -> None))

  let sample () =
    let st = Gc.quick_stat () in
    Gauge.set g_minor (float_of_int st.Gc.minor_collections);
    Gauge.set g_major (float_of_int st.Gc.major_collections);
    Gauge.set g_compact (float_of_int st.Gc.compactions);
    Gauge.set g_minor_words st.Gc.minor_words;
    Gauge.set g_promoted st.Gc.promoted_words;
    Gauge.set g_heap (float_of_int st.Gc.heap_words);
    Gauge.set g_domains (float_of_int (Atomic.get registered_domains));
    match rss_pages () with
    | Some pages ->
        let cur = float_of_int pages *. 4096.0 in
        Gauge.set g_rss_pages (float_of_int pages);
        Gauge.set g_rss_bytes cur;
        (* Max-tracking: unlike the last-write-wins gauges above, the
           peak survives later, smaller samples ([Obs.reset] clears
           it). *)
        let prev = Gauge.value g_rss_peak in
        Gauge.set g_rss_peak (if Float.is_nan prev then cur else Float.max prev cur)
    | None -> ()

  let lock = Mutex.create ()
  let state : (bool Atomic.t * Thread.t) option ref = ref None

  let running () = Mutex.protect lock (fun () -> Option.is_some !state)

  let start ?(period_ms = 500) () =
    if period_ms <= 0 then invalid_arg "Obs.Runtime.start: period_ms must be positive";
    Mutex.protect lock (fun () ->
        if Option.is_none !state then begin
          sample ();
          let stop_flag = Atomic.make false in
          let thread =
            Thread.create
              (fun () ->
                (* Sleep in short slices so [stop] joins promptly even
                   with a long sampling period. *)
                let slice = Float.min 0.1 (float_of_int period_ms /. 1000.0) in
                let rec run () =
                  if not (Atomic.get stop_flag) then begin
                    let slept = ref 0.0 in
                    while !slept < float_of_int period_ms /. 1000.0 && not (Atomic.get stop_flag)
                    do
                      Thread.delay slice;
                      slept := !slept +. slice
                    done;
                    if not (Atomic.get stop_flag) then sample ();
                    run ()
                  end
                in
                run ())
              ()
          in
          state := Some (stop_flag, thread)
        end)

  let stop () =
    let stopped =
      Mutex.protect lock (fun () ->
          let s = !state in
          state := None;
          s)
    in
    match stopped with
    | None -> ()
    | Some (flag, thread) ->
        Atomic.set flag true;
        Thread.join thread
end

(* --- JSON exporters ---------------------------------------------- *)

(* Trace identifiers ride in the args object — the Chrome-trace format
   has no dedicated fields for them, and Perfetto renders args, so the
   ids stay inspectable.  [Report] reads them back from there. *)
let export_args e =
  if e.trace_id = "" then e.args
  else
    ("trace_id", e.trace_id) :: ("span_id", e.span_id)
    :: (if e.parent_id = "" then e.args else ("parent_id", e.parent_id) :: e.args)

(* Microseconds rebased to the earliest span: Chrome-trace viewers
   expect small monotonic offsets, and a double keeps full precision
   once the (huge) absolute clock origin is gone.  The top level is
   the Chrome-trace JSON {e Object Format} so span loss is visible in
   the artifact itself as a "dropped_events" field. *)
let chrome_trace_of ?(extra = []) evs =
  let base = match evs with [] -> 0L | e :: _ -> e.ts_ns in
  let us ns = Json.Num (Int64.to_float ns /. 1e3) in
  (* Every event: name, ph, [ts], pid, tid, [scope], string args. *)
  let event ?(ts = []) ?(scope = []) name ph tid args =
    Json.Obj
      ([ ("name", Json.Str name); ("ph", Json.Str ph) ]
      @ ts
      @ [ ("pid", Json.int 1); ("tid", Json.int tid) ]
      @ scope
      @ [ ("args", Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) args)) ])
  in
  let threads =
    List.map
      (fun tid -> event "thread_name" "M" tid [ ("name", Printf.sprintf "domain-%d" tid) ])
      (List.sort_uniq compare (List.map (fun e -> e.tid) evs))
  in
  let spans =
    List.map
      (fun e ->
        let ts = [ ("ts", us (Int64.sub e.ts_ns base)); ("dur", us e.dur_ns) ] in
        event ~ts e.name "X" e.tid (export_args e))
      evs
  in
  (* Counters ride along as process-scoped instant events so a trace
     file is self-contained. *)
  let instants =
    List.filter_map
      (fun (name, v) ->
        if v = 0 then None
        else
          Some
            (event name "i" 0 [ ("value", string_of_int v) ] ~ts:[ ("ts", Json.int 0) ]
               ~scope:[ ("s", Json.Str "p") ]))
      (counters ())
  in
  Json.to_string Json.Indented
    (Json.Obj
       (("traceEvents", Json.Arr (threads @ spans @ instants))
       :: ("dropped_events", Json.int (dropped_events ()))
       :: extra))

let chrome_trace_json () = chrome_trace_of (trace_events ())

let metrics_json () =
  let obj f kvs = Json.Obj (List.map (fun (k, v) -> (k, f v)) kvs) in
  let summary (s : Stats.summary) =
    Json.Obj
      [
        ("count", Json.int s.Stats.count); ("mean", Json.Num s.Stats.mean);
        ("stddev", Json.Num s.Stats.stddev); ("min", Json.Num s.Stats.min);
        ("max", Json.Num s.Stats.max); ("total", Json.Num s.Stats.total);
      ]
  in
  Json.to_string Json.Compact
    (Json.Obj
       [
         ("counters", obj Json.int (counters ()));
         ("gauges", obj (fun v -> Json.Num v) (gauges ()));
         ("histograms", obj summary (histograms ()));
         ("dropped_events", Json.int (dropped_events ()));
       ])

(* --- Prometheus text exposition (format version 0.0.4) ------------- *)

(* Metric names are restricted to [a-zA-Z_:][a-zA-Z0-9_:]*; the
   repository's dotted names map dots (and anything else) to
   underscores, so counter [pipeline.stage.lp_solve] exports as
   [pipeline_stage_lp_solve]. *)
let prom_name s =
  let b = Buffer.create (String.length s) in
  String.iteri
    (fun i c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '_' | ':' -> Buffer.add_char b c
      | '0' .. '9' ->
          if i = 0 then Buffer.add_char b '_';
          Buffer.add_char b c
      | _ -> Buffer.add_char b '_')
    s;
  if Buffer.length b = 0 then "_" else Buffer.contents b

let help_escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 -> Buffer.add_char b '_'
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let prom_labels labels =
  if labels = [] then ""
  else
    "{"
    ^ String.concat ","
        (List.map (fun (k, v) -> prom_name k ^ "=\"" ^ label_escape v ^ "\"") labels)
    ^ "}"

let prom_float f =
  if Float.is_nan f then "NaN"
  else if f = Float.infinity then "+Inf"
  else if f = Float.neg_infinity then "-Inf"
  else Printf.sprintf "%.17g" f

let prometheus_text () =
  let b = Buffer.create 4096 in
  let header name typ help =
    Buffer.add_string b (Printf.sprintf "# HELP %s %s\n" name (help_escape help));
    Buffer.add_string b (Printf.sprintf "# TYPE %s %s\n" name typ)
  in
  (* Group family members (and standalone metrics) by base name so all
     samples of one metric name form one block, as the format
     requires. *)
  let group_by_base entries =
    let tbl = Hashtbl.create 32 in
    let order = ref [] in
    List.iter
      (fun (base, labels, v) ->
        (match Hashtbl.find_opt tbl base with
        | None ->
            order := base :: !order;
            Hashtbl.replace tbl base [ (labels, v) ]
        | Some rows -> Hashtbl.replace tbl base ((labels, v) :: rows)))
      entries;
    List.rev_map (fun base -> (base, List.rev (Hashtbl.find tbl base))) !order
    |> List.sort (fun (a, _) (c, _) -> compare a c)
  in
  let ms = metrics () in
  let cs =
    List.filter_map
      (function C c -> Some (c.Counter0.base, c.Counter0.labels, Counter0.value c) | _ -> None)
      ms
    |> List.sort compare
  in
  List.iter
    (fun (base, rows) ->
      let name = prom_name base in
      header name "counter" ("tinflow counter " ^ base);
      List.iter
        (fun (labels, v) -> Buffer.add_string b (Printf.sprintf "%s%s %d\n" name (prom_labels labels) v))
        rows)
    (group_by_base cs);
  let gs =
    List.filter_map
      (function
        | G g -> (
            (* NaN means "unset": skipped like a never-written gauge. *)
            match Gauge0.freshest g with
            | Some (_, v) when not (Float.is_nan v) -> Some (g.Gauge0.name, [], v)
            | _ -> None)
        | _ -> None)
      ms
    |> List.sort compare
  in
  List.iter
    (fun (base, rows) ->
      let name = prom_name base in
      header name "gauge" ("tinflow gauge " ^ base);
      List.iter
        (fun (labels, v) ->
          Buffer.add_string b (Printf.sprintf "%s%s %s\n" name (prom_labels labels) (prom_float v)))
        rows)
    (group_by_base gs);
  (* Histogram summaries export as four gauge families: _count always,
     _sum/_min/_max only for nonempty members (min/max of an empty
     sample have no value). *)
  let hs =
    List.filter_map
      (function
        | H h -> Some (h.Histogram0.base, h.Histogram0.labels, Histogram0.summary h) | _ -> None)
      ms
    |> List.sort compare
  in
  List.iter
    (fun (base, rows) ->
      let emit_part suffix help value_of keep =
        let kept = List.filter (fun (_, s) -> keep s) rows in
        if kept <> [] then begin
          let name = prom_name base ^ suffix in
          header name "gauge" (help ^ " " ^ base);
          List.iter
            (fun (labels, s) ->
              Buffer.add_string b
                (Printf.sprintf "%s%s %s\n" name (prom_labels labels) (prom_float (value_of s))))
            kept
        end
      in
      emit_part "_count" "observation count of histogram"
        (fun (s : Stats.summary) -> float_of_int s.Stats.count)
        (fun _ -> true);
      emit_part "_sum" "observation sum of histogram"
        (fun s -> s.Stats.total)
        (fun s -> s.Stats.count > 0);
      emit_part "_min" "observation minimum of histogram"
        (fun s -> s.Stats.min)
        (fun s -> s.Stats.count > 0);
      emit_part "_max" "observation maximum of histogram"
        (fun s -> s.Stats.max)
        (fun s -> s.Stats.count > 0))
    (group_by_base hs);
  (* Span loss is part of the scrape: a dashboard can alert on it. *)
  header "obs_dropped_span_events" "counter" "spans overwritten in the per-domain span ring";
  Buffer.add_string b (Printf.sprintf "obs_dropped_span_events %d\n" (dropped_events ()));
  Buffer.contents b

let write_chrome_trace path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (chrome_trace_json ()))

let print_summary oc =
  let cs = List.filter (fun (_, v) -> v <> 0) (counters ()) in
  if cs <> [] then
    output_string oc
      (Table.render ~title:"observability: counters" ~header:[ "counter"; "value" ]
         (List.map (fun (n, v) -> [ n; string_of_int v ]) cs));
  let gs = gauges () in
  if gs <> [] then
    output_string oc
      (Table.render ~title:"observability: gauges" ~header:[ "gauge"; "value" ]
         (List.map (fun (n, v) -> [ n; Printf.sprintf "%.4g" v ]) gs));
  let hs = List.filter (fun (_, (s : Stats.summary)) -> s.Stats.count > 0) (histograms ()) in
  if hs <> [] then
    output_string oc
      (Table.render ~title:"observability: histograms"
         ~header:[ "histogram"; "count"; "mean"; "min"; "max"; "total" ]
         (List.map
            (fun (n, (s : Stats.summary)) ->
              [
                n;
                string_of_int s.Stats.count;
                Printf.sprintf "%.4g" s.Stats.mean;
                Printf.sprintf "%.4g" s.Stats.min;
                Printf.sprintf "%.4g" s.Stats.max;
                Printf.sprintf "%.4g" s.Stats.total;
              ])
            hs));
  let spans = List.length (trace_events ()) in
  if spans > 0 then
    Printf.fprintf oc "observability: %d span(s) kept%s\n" spans
      (match dropped_events () with 0 -> "" | d -> Printf.sprintf ", %d older one(s) dropped" d);
  if cs = [] && gs = [] && hs = [] && spans = 0 then
    output_string oc "observability: no metrics recorded\n"

(* --- flight recorder: dump / incident API -------------------------- *)

module Flight = struct
  include Flight0

  let lock = Mutex.create ()
  let prefix = ref ("tinflow-flight-" ^ string_of_int (Unix.getpid ()))
  let last_dump_ns = Atomic.make Int64.min_int

  let set_dump_prefix p =
    if p = "" then invalid_arg "Obs.Flight.set_dump_prefix: empty prefix";
    Mutex.protect lock (fun () -> prefix := p)

  (* Post-mortem snapshot: the ring contents as a Chrome trace, with
     the trigger and the armed flag as extra top-level fields.
     Serialized under a lock (signal handler, 5xx path and crash hook
     may race); safe to call from a [Sys.Signal_handle] because those
     run as normal OCaml code between allocations, not as raw signal
     handlers. *)
  let dump ?path ~reason () =
    let evs = events () in
    let body =
      chrome_trace_of ~extra:[ ("reason", Json.Str reason); ("armed", Json.Bool (armed ())) ] evs
    in
    Mutex.protect lock (fun () ->
        let path =
          match path with Some p -> p | None -> Printf.sprintf "%s-%s.json" !prefix reason
        in
        let oc = open_out path in
        Fun.protect
          ~finally:(fun () -> close_out_noerr oc)
          (fun () -> output_string oc body);
        Atomic.set last_dump_ns (Timer.now_ns ());
        path)

  (* Rate-limited dump for recurring triggers (daemon 5xx): at most
     one file per second, so an error storm cannot turn the black box
     into an I/O storm.  Returns the path when a dump was written. *)
  let incident ~reason () =
    let now = Timer.now_ns () in
    let last = Atomic.get last_dump_ns in
    if last <> Int64.min_int && Int64.sub now last < 1_000_000_000L then None
    else Some (dump ~reason ())
end
