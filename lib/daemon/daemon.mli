(** The [tinflow serve] state machine: streaming ingestion with
    windowed incremental flow and delta-maintained pattern tables.

    The paper's headline scenario (Section 1: an FIU monitoring
    transactions for fraud) assumes a long-running system that ingests
    interactions as they happen.  This module composes the pieces the
    library already had into that system:

    - a sliding event-time window ({!Tin_core.Window} semantics: the
      closed interval [[last_time - window, last_time]] is kept,
      older interactions are evicted), stored once as an array in the
      canonical scan order of {!Graph.interactions_sorted};
    - incremental greedy source→sink flow
      ({!Tin_core.Greedy.Kernel.push} per accepted interaction);
    - cycle/chain path tables maintained by delta updates
      ({!Tin_patterns.Delta.apply} on a configurable cadence — the
      paper's footnote 2 — over the {e cumulative} network, which only
      grows);
    - catalog pattern re-evaluation against the updated tables, with
      alerts for instances whose flow clears a threshold.

    {2 Exactness model}

    The reported windowed flow always equals a batch
    [Greedy.flow (Window.restrict ~from_time:(last - window) g)] over
    the same stream — enforced lazily.  Ingestion inserts each
    accepted interaction at its canonical [(time, qty, src, dst)]
    position (normally the end: only peers at the same timestamp can
    sort after it), evicts by advancing the window's head, and, while
    the greedy kernel is current, pushes the interaction into it.  Two
    events invalidate the kernel: an eviction (the scan cannot un-see an interaction) and an
    arrival tying the pre-batch newest timestamp (its canonical
    position may precede peers already scanned).  Either marks the
    state dirty instead of rebuilding immediately.  Any
    {e observation} ({!flow}, {!stats}, {!tick}) first rebuilds by
    replaying the window in place through
    {!Tin_core.Greedy.Kernel.replay}, so observed values are exact,
    while a high-rate ingest path between observations stays
    incremental.  Differentially tested against batch recomputation.

    Arrivals older than the newest accepted timestamp (and self-loops)
    are counted and skipped, never applied: the greedy scan is
    append-only.

    Thread-safety: every operation takes an internal mutex; handlers
    produced by {!routes} may run on the {!Tin_obs.Serve} domain while
    another thread reads {!stats}. *)

type config = {
  source : int;
  sink : int;
  window : float;  (** Event-time span kept; [infinity] = unbounded. *)
  cadence : int;
      (** Auto-{!tick} after this many accepted interactions;
          [0] = only explicit ticks. *)
  patterns : Tin_patterns.Catalog.pattern list;
      (** Re-evaluated at each tick; the chain table is maintained
          exactly when some pattern needs it. *)
  min_flow : float;  (** Alert threshold on a pattern's total flow. *)
  limit : int;  (** Per-pattern instance cap at each evaluation. *)
}

val config :
  source:int ->
  sink:int ->
  ?window:float ->
  ?cadence:int ->
  ?patterns:Tin_patterns.Catalog.pattern list ->
  ?min_flow:float ->
  ?limit:int ->
  unit ->
  config
(** Defaults: unbounded window, cadence [0], no patterns, [min_flow]
    [0.], limit [10_000]. *)

type alert = {
  pattern : Tin_patterns.Catalog.pattern;
  instances : int;
  total_flow : float;
  tick : int;  (** 1-based index of the tick that raised it. *)
}
(** Raised by a tick when a configured pattern has at least one
    instance with positive total flow [>= min_flow]. *)

type ingest_result = {
  accepted : int;
  rejected : int;  (** Late arrivals and self-loops, skipped. *)
  window_interactions : int;
  alerts : alert list;  (** Nonempty only when the batch tripped the cadence. *)
}

type stats = {
  flow : float;  (** Exact windowed greedy flow (forces a rebuild if dirty). *)
  window_interactions : int;
  last_time : float option;
  accepted_total : int;
  rejected_total : int;
  evicted_total : int;
  rebuilds_total : int;
  ticks_total : int;
  alerts_total : int;
  rows_recomputed_total : int;  (** {!Tin_patterns.Delta} row rebuilds. *)
}

type t

val create : ?base:Graph.t -> ?on_alert:(alert -> unit) -> config -> t
(** [create config] starts an empty monitor; [base] seeds both the
    window and the precomputed tables (e.g. a historical network
    loaded at startup).  [on_alert] is called synchronously from the
    ticking thread for each alert, in addition to the alert being
    returned; exceptions it raises are swallowed.
    @raise Invalid_argument if [source = sink], [window] is not
    positive, [cadence] is negative or [limit] is not positive. *)

val ingest : t -> Ingest.entry list -> ingest_result
(** Apply one batch.  The batch is first sorted into canonical
    [(time, qty, src, dst)] order; entries older than the newest
    accepted timestamp are rejected (counted, skipped). *)

val tick : t -> alert list
(** Force a cadence tick now: applies pending additions to the path
    tables via {!Tin_patterns.Delta.apply} and re-evaluates the
    configured patterns.  The table state after every tick equals a
    from-scratch {!Tin_patterns.Catalog.precompute} over the grown
    network (differentially tested). *)

val flow : t -> float
(** Exact greedy flow over the current window. *)

val stats : t -> stats

val window : t -> (int * int * Interaction.t) array
(** A copy of the in-window [(src, dst, interaction)] triples, in the
    order of {!Graph.interactions_sorted} (for differential tests). *)

val tables : t -> Tin_patterns.Delta.t
(** The delta-maintained table state (for differential tests). *)

val routes : t -> (Tin_obs.Serve.meth * string * Tin_obs.Serve.handler) list
(** HTTP surface for {!Tin_obs.Serve.start}:
    - [POST /ingest] — JSON-lines body ({!Ingest}); answers
      [{"accepted":..,"rejected":..,"window_interactions":..,"alerts":[..]}]
      with [200], or [400] with [{"error":..}] on a malformed body;
    - [GET /status] — the {!stats} record as JSON.

    Gauges [serve_ingest_lag_seconds] (wall clock minus newest event
    time, clamped at zero — meaningful when event times are epoch
    seconds), [serve_window_interactions] and
    [serve_rows_recomputed_total], plus [serve_*_total] counters, are
    published on the shared {!Tin_obs.Obs} registry and appear in
    [GET /metrics] scrapes. *)
