module Obs = Tin_obs.Obs
module Serve = Tin_obs.Serve
module Json = Tin_util.Json
module Online = Tin_core.Online
module Window = Tin_core.Window
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
  mutable window_g : Graph.t;  (* in-window interactions, exact *)
  times : float Queue.t;  (* their timestamps, non-decreasing *)
  mutable online : Online.t;
  mutable dirty : bool;
      (* [online] no longer reflects [window_g] restricted to
         [evict_from]; any observation must rebuild first. *)
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

(* Slide the window low edge up to [stream_last - window] and drop the
   timestamps that fell off.  The graph itself is pruned lazily at the
   next rebuild — eviction only has to mark the monitor dirty. *)
let evict t =
  if t.config.window < infinity && t.stream_last > neg_infinity then begin
    let from = t.stream_last -. t.config.window in
    if from > t.evict_from then t.evict_from <- from;
    let popped = ref 0 in
    while (not (Queue.is_empty t.times)) && Queue.peek t.times < t.evict_from do
      ignore (Queue.pop t.times);
      incr popped
    done;
    if !popped > 0 then begin
      t.evicted <- t.evicted + !popped;
      Obs.Counter.add c_evicted !popped;
      t.dirty <- true
    end
  end

(* Replay the restricted window in canonical order; afterwards
   [online] again equals a batch Greedy over the window. *)
let rebuild t =
  if t.dirty then begin
    t.window_g <- Window.restrict ~from_time:t.evict_from t.window_g;
    t.online <- Online.of_graph t.window_g ~source:t.config.source ~sink:t.config.sink;
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
  let t =
    {
      config;
      on_alert;
      mutex = Mutex.create ();
      window_g = base;
      times = Queue.create ();
      online = Online.of_graph base ~source:config.source ~sink:config.sink;
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
  let sorted = Graph.interactions_sorted base in
  Array.iter (fun (_, _, i) -> Queue.push (Interaction.time i) t.times) sorted;
  if Array.length sorted > 0 then begin
    let _, _, last = sorted.(Array.length sorted - 1) in
    t.stream_last <- Interaction.time last
  end;
  evict t;
  rebuild t;
  Obs.Gauge.set g_window (float_of_int (Queue.length t.times));
  (* Gauges are process-global: a fresh daemon must retract whatever
     lag a previous instance published.  NaN reads as "unset" and is
     skipped by the exporters; with a preloaded base there is a
     meaningful lag immediately. *)
  Obs.Gauge.set g_lag
    (if Queue.is_empty t.times || t.stream_last = neg_infinity then Float.nan
     else Float.max 0. (Unix.gettimeofday () -. t.stream_last));
  t

(* Canonical stream order: Interaction.compare is (time, qty); break
   remaining ties by (src, dst) like Graph.interactions_sorted so the
   incremental push sequence matches the batch replay exactly. *)
let entry_cmp (a : Ingest.entry) (b : Ingest.entry) =
  match Interaction.compare a.inter b.inter with
  | 0 -> (
      match Int.compare a.src b.src with
      | 0 -> Int.compare a.dst b.dst
      | c -> c)
  | c -> c

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
      let r = Catalog.pb ~limit:t.config.limit t.delta.Delta.net t.delta.Delta.tables p in
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
  let entries = List.stable_sort entry_cmp entries in
  let floor = t.stream_last in
  let accepted = ref 0 and rejected = ref 0 in
  List.iter
    (fun (e : Ingest.entry) ->
      let tm = Interaction.time e.inter in
      if e.src = e.dst || tm < floor then incr rejected
      else begin
        (* A tie with the pre-batch frontier means this entry's
           canonical position may precede interactions already pushed
           in an earlier batch: fall back to replay-on-observe. *)
        if (not t.dirty) && Float.equal tm floor then t.dirty <- true;
        if not t.dirty then ignore (Online.push t.online ~src:e.src ~dst:e.dst e.inter);
        t.window_g <- Graph.add_interaction t.window_g ~src:e.src ~dst:e.dst e.inter;
        Queue.push tm t.times;
        t.pending <- (e.src, e.dst, e.inter) :: t.pending;
        t.stream_last <- tm;
        incr accepted
      end)
    entries;
  evict t;
  t.accepted <- t.accepted + !accepted;
  t.rejected <- t.rejected + !rejected;
  t.since_tick <- t.since_tick + !accepted;
  Obs.Counter.add c_ingested !accepted;
  Obs.Counter.add c_rejected !rejected;
  Obs.Gauge.set g_window (float_of_int (Queue.length t.times));
  (* Lag is only meaningful against a nonempty window: if nothing has
     ever arrived (or eviction drained everything), the gauge must
     read NaN — skipped by the exposition — not the last stale
     value. *)
  if Queue.is_empty t.times || t.stream_last = neg_infinity then Obs.Gauge.set g_lag Float.nan
  else if !accepted > 0 then
    Obs.Gauge.set g_lag (Float.max 0. (Unix.gettimeofday () -. t.stream_last));
  let alerts =
    if t.config.cadence > 0 && t.since_tick >= t.config.cadence then tick_locked t
    else []
  in
  {
    accepted = !accepted;
    rejected = !rejected;
    window_interactions = Queue.length t.times;
    alerts;
  }

let tick t = locked t @@ fun () -> tick_locked t

let flow t =
  locked t @@ fun () ->
  rebuild t;
  Online.flow t.online

let stats t =
  locked t @@ fun () ->
  rebuild t;
  {
    flow = Online.flow t.online;
    window_interactions = Queue.length t.times;
    last_time = (if t.stream_last = neg_infinity then None else Some t.stream_last);
    accepted_total = t.accepted;
    rejected_total = t.rejected;
    evicted_total = t.evicted;
    rebuilds_total = t.rebuilds;
    ticks_total = t.ticks;
    alerts_total = t.alerts_n;
    rows_recomputed_total = t.delta.Delta.rows_recomputed;
  }

let window_graph t =
  locked t @@ fun () ->
  rebuild t;
  t.window_g

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
