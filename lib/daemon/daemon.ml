module Obs = Tin_obs.Obs
module Serve = Tin_obs.Serve
module Json = Tin_util.Json
module Kernel = Tin_core.Greedy.Kernel
module Catalog = Tin_patterns.Catalog
module Delta = Tin_patterns.Delta

type config = {
  source : int;
  sink : int;
  window : float;
  cadence : int;
  patterns : Catalog.pattern list;
  min_flow : float;
  limit : int;
}

let config ~source ~sink ?(window = infinity) ?(cadence = 0) ?(patterns = [])
    ?(min_flow = 0.) ?(limit = 10_000) () =
  { source; sink; window; cadence; patterns; min_flow; limit }

type alert = {
  pattern : Catalog.pattern;
  instances : int;
  total_flow : float;
  tick : int;
}

type ingest_result = {
  accepted : int;
  rejected : int;
  window_interactions : int;
  alerts : alert list;
}

type stats = {
  flow : float;
  window_interactions : int;
  last_time : float option;
  accepted_total : int;
  rejected_total : int;
  evicted_total : int;
  rebuilds_total : int;
  ticks_total : int;
  alerts_total : int;
  rows_recomputed_total : int;
}

(* Process-global: one registry entry per name regardless of how many
   daemons run (in practice: one). *)
let g_lag = Obs.Gauge.make "serve.ingest_lag_seconds"
let g_window = Obs.Gauge.make "serve.window_interactions"
let g_rows = Obs.Gauge.make "serve.rows_recomputed_total"
let c_ingested = Obs.Counter.make "serve.ingested_total"
let c_rejected = Obs.Counter.make "serve.rejected_total"
let c_evicted = Obs.Counter.make "serve.evicted_total"
let c_rebuilds = Obs.Counter.make "serve.window_rebuilds_total"
let c_ticks = Obs.Counter.make "serve.ticks_total"
let c_alerts = Obs.Counter.make "serve.alerts_total"

type t = {
  config : config;
  on_alert : alert -> unit;
  mutex : Mutex.t;
  (* All fields below are guarded by [mutex]. *)
  mutable win : (int * int * Interaction.t) array;
  mutable lo : int;
  mutable hi : int;
      (* [win.(lo) .. win.(hi - 1)] is the window, in exactly the order
         [Graph.interactions_sorted] would give it ([Graph.scan_compare]
         ascending); the slots outside that range are dead. *)
  mutable kernel : Kernel.t;
  mutable dirty : bool;
      (* [kernel] no longer reflects a scan of the window; any
         observation must rebuild first. *)
  mutable stream_last : float;  (* newest accepted timestamp *)
  mutable evict_from : float;  (* window low edge, non-decreasing *)
  mutable delta : Delta.t;  (* tables over the cumulative net *)
  mutable pending : (int * int * Interaction.t) list;
      (* accepted since the last tick, newest first *)
  mutable since_tick : int;
  mutable accepted : int;
  mutable rejected : int;
  mutable evicted : int;
  mutable rebuilds : int;
  mutable ticks : int;
  mutable alerts_n : int;
}

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let size t = t.hi - t.lo

let time_at t j =
  let _, _, i = t.win.(j) in
  Interaction.time i

(* Slide the window low edge up to [stream_last - window] and advance
   [lo] past the interactions that fell off (the closed interval of
   [Window.restrict]).  The greedy state cannot un-see them, so
   eviction marks it dirty. *)
let evict t =
  if t.config.window < infinity && t.stream_last > neg_infinity then begin
    let from = t.stream_last -. t.config.window in
    if from > t.evict_from then t.evict_from <- from;
    let lo = t.lo in
    while t.lo < t.hi && time_at t t.lo < t.evict_from do
      t.lo <- t.lo + 1
    done;
    let popped = t.lo - lo in
    if popped > 0 then begin
      t.evicted <- t.evicted + popped;
      Obs.Counter.add c_evicted popped;
      t.dirty <- true
    end
  end

(* Place an accepted interaction at its canonical position.  Its time
   is at least every time in the window, so only entries with the same
   timestamp can sort after it: normally it goes at the end.  A full
   array first drops the evicted prefix and doubles only if the window
   still fills more than half of it. *)
let insert t x =
  let cap = Array.length t.win in
  if t.hi = cap then begin
    let live = size t in
    let win = if 2 * live > cap || cap = 0 then Array.make (max 16 (2 * cap)) x else t.win in
    Array.blit t.win t.lo win 0 live;
    t.win <- win;
    t.lo <- 0;
    t.hi <- live
  end;
  let j = ref t.hi in
  while !j > t.lo && Graph.scan_compare t.win.(!j - 1) x > 0 do
    t.win.(!j) <- t.win.(!j - 1);
    decr j
  done;
  t.win.(!j) <- x;
  t.hi <- t.hi + 1

(* Scan the window in place; afterwards [kernel] equals a batch
   greedy over the window. *)
let replay t =
  t.kernel <- Kernel.create ~source:t.config.source ~sink:t.config.sink;
  Kernel.replay ~lo:t.lo ~hi:t.hi t.kernel t.win

let rebuild t =
  if t.dirty then begin
    replay t;
    t.rebuilds <- t.rebuilds + 1;
    Obs.Counter.incr c_rebuilds;
    t.dirty <- false
  end

let create ?(base = Graph.empty) ?(on_alert = fun _ -> ()) config =
  if config.source = config.sink then invalid_arg "Daemon.create: source = sink";
  if Float.is_nan config.window || config.window <= 0. then
    invalid_arg "Daemon.create: window must be positive";
  if config.cadence < 0 then invalid_arg "Daemon.create: cadence must be non-negative";
  if config.limit < 1 then invalid_arg "Daemon.create: limit must be positive";
  let with_chains = List.exists Catalog.needs_chains config.patterns in
  let win = Graph.interactions_sorted base in
  let t =
    {
      config;
      on_alert;
      mutex = Mutex.create ();
      win;
      lo = 0;
      hi = Array.length win;
      kernel = Kernel.create ~source:config.source ~sink:config.sink;
      dirty = false;
      stream_last = neg_infinity;
      evict_from = neg_infinity;
      delta = Delta.create ~with_chains (Compact.of_graph base);
      pending = [];
      since_tick = 0;
      accepted = 0;
      rejected = 0;
      evicted = 0;
      rebuilds = 0;
      ticks = 0;
      alerts_n = 0;
    }
  in
  if t.hi > 0 then t.stream_last <- time_at t (t.hi - 1);
  evict t;
  if t.dirty then rebuild t else replay t;
  Obs.Gauge.set g_window (float_of_int (size t));
  (* Gauges are process-global: a fresh daemon must retract whatever
     lag a previous instance published.  NaN reads as "unset" and is
     skipped by the exporters; with a preloaded base there is a
     meaningful lag immediately. *)
  Obs.Gauge.set g_lag
    (if size t = 0 || t.stream_last = neg_infinity then Float.nan
     else Float.max 0. (Unix.gettimeofday () -. t.stream_last));
  t

let tick_locked t =
  Obs.Span.with_ "serve.tick" @@ fun () ->
  rebuild t;
  if t.pending <> [] then begin
    t.delta <- Delta.apply t.delta ~additions:t.pending;
    t.pending <- []
  end;
  t.since_tick <- 0;
  t.ticks <- t.ticks + 1;
  Obs.Counter.incr c_ticks;
  Obs.Gauge.set g_rows (float_of_int t.delta.Delta.rows_recomputed);
  List.filter_map
    (fun p ->
      let r =
        Catalog.pb ~jobs:1 ~limit:t.config.limit t.delta.Delta.net t.delta.Delta.tables p
      in
      if r.Catalog.instances > 0 && r.Catalog.total_flow > 0.
         && r.Catalog.total_flow >= t.config.min_flow
      then begin
        let a =
          {
            pattern = p;
            instances = r.Catalog.instances;
            total_flow = r.Catalog.total_flow;
            tick = t.ticks;
          }
        in
        t.alerts_n <- t.alerts_n + 1;
        Obs.Counter.incr c_alerts;
        (try t.on_alert a with _ -> ());
        Some a
      end
      else None)
    t.config.patterns

let ingest t entries =
  locked t @@ fun () ->
  (* Nested under the server's [http./ingest] root span (the handler
     runs on the serving domain, where that context is installed), so
     a request trace separates ingest work from any cadence tick. *)
  Obs.Span.with_ "serve.ingest" @@ fun () ->
  let batch =
    List.map (fun (e : Ingest.entry) -> (e.src, e.dst, e.inter)) entries
    |> List.stable_sort Graph.scan_compare
  in
  let floor = t.stream_last in
  let accepted = ref 0 and rejected = ref 0 in
  List.iter
    (fun ((src, dst, inter) as x) ->
      let tm = Interaction.time inter in
      if src = dst || tm < floor then incr rejected
      else begin
        (* A tie with the pre-batch frontier means this entry's
           canonical position may precede interactions already scanned
           in an earlier batch: fall back to replay-on-observe. *)
        if (not t.dirty) && Float.equal tm floor then t.dirty <- true;
        if not t.dirty then ignore (Kernel.push t.kernel ~src ~dst inter);
        insert t x;
        t.pending <- x :: t.pending;
        t.stream_last <- tm;
        incr accepted
      end)
    batch;
  evict t;
  t.accepted <- t.accepted + !accepted;
  t.rejected <- t.rejected + !rejected;
  t.since_tick <- t.since_tick + !accepted;
  Obs.Counter.add c_ingested !accepted;
  Obs.Counter.add c_rejected !rejected;
  Obs.Gauge.set g_window (float_of_int (size t));
  (* Lag is only meaningful against a nonempty window: if nothing has
     ever arrived (or eviction drained everything), the gauge must
     read NaN — skipped by the exposition — not the last stale
     value. *)
  if size t = 0 || t.stream_last = neg_infinity then Obs.Gauge.set g_lag Float.nan
  else if !accepted > 0 then
    Obs.Gauge.set g_lag (Float.max 0. (Unix.gettimeofday () -. t.stream_last));
  let alerts =
    if t.config.cadence > 0 && t.since_tick >= t.config.cadence then tick_locked t
    else []
  in
  {
    accepted = !accepted;
    rejected = !rejected;
    window_interactions = size t;
    alerts;
  }

let tick t = locked t @@ fun () -> tick_locked t

let flow t =
  locked t @@ fun () ->
  rebuild t;
  Kernel.flow t.kernel

let stats t =
  locked t @@ fun () ->
  rebuild t;
  {
    flow = Kernel.flow t.kernel;
    window_interactions = size t;
    last_time = (if t.stream_last = neg_infinity then None else Some t.stream_last);
    accepted_total = t.accepted;
    rejected_total = t.rejected;
    evicted_total = t.evicted;
    rebuilds_total = t.rebuilds;
    ticks_total = t.ticks;
    alerts_total = t.alerts_n;
    rows_recomputed_total = t.delta.Delta.rows_recomputed;
  }

let window t = locked t @@ fun () -> Array.sub t.win t.lo (size t)

let tables t = locked t @@ fun () -> t.delta

(* HTTP glue *)

let json code v =
  { Serve.code; content_type = "application/json"; body = Json.to_string Json.Compact v ^ "\n" }

let alert_json (a : alert) =
  Json.Obj
    [
      ("pattern", Json.Str (Catalog.pattern_name a.pattern)); ("instances", Json.int a.instances);
      ("total_flow", Json.Num a.total_flow); ("tick", Json.int a.tick);
    ]

let routes t =
  [
    ( `POST,
      "/ingest",
      fun ~body ->
        match Ingest.parse_body body with
        | Error msg -> json 400 (Json.Obj [ ("error", Json.Str msg) ])
        | Ok entries ->
            let r = ingest t entries in
            json 200
              (Json.Obj
                 [
                   ("accepted", Json.int r.accepted); ("rejected", Json.int r.rejected);
                   ("window_interactions", Json.int r.window_interactions);
                   ("alerts", Json.Arr (List.map alert_json r.alerts));
                 ]) );
    ( `GET,
      "/status",
      fun ~body:_ ->
        let s = stats t in
        let last_time = match s.last_time with None -> Json.Null | Some x -> Json.Num x in
        json 200
          (Json.Obj
             [
               ("flow", Json.Num s.flow); ("window_interactions", Json.int s.window_interactions);
               ("last_time", last_time); ("accepted_total", Json.int s.accepted_total);
               ("rejected_total", Json.int s.rejected_total);
               ("evicted_total", Json.int s.evicted_total);
               ("rebuilds_total", Json.int s.rebuilds_total);
               ("ticks_total", Json.int s.ticks_total); ("alerts_total", Json.int s.alerts_total);
               ("rows_recomputed_total", Json.int s.rows_recomputed_total);
             ]) );
  ]
