(** Multicore batch evaluation of independent flow problems.

    The workload shape of the extraction benchmarks and of any
    many-endpoint-pair analysis: thousands of small, mutually
    independent subgraph solves.  Each solve touches only its own
    (persistent) graph and a private LP builder, so the problems
    parallelize across OCaml 5 [Domain]s with no shared mutable state.
    Work is handed out in fixed-size chunks from a single atomic
    cursor — a chunked queue rather than work stealing, which is
    enough because chunk granularity amortizes the cursor contention
    and the per-problem cost variance is modest. *)

val recommended_jobs : unit -> int
(** [Domain.recommended_domain_count ()] — the default parallelism. *)

val map : ?jobs:int -> ?chunk:int -> ('a -> 'b) -> 'a array -> 'b array
(** [map f items] evaluates [f] on every element, preserving order.
    [jobs] (default: [min (recommended_jobs ()) (length items)], at
    least 1) is the total number of domains used, including the
    calling one; [jobs = 1] degrades to [Array.map].  [chunk]
    (default 4) is the number of consecutive items claimed per queue
    round-trip.  [f] must be safe to run concurrently with itself.  If
    any invocation raises, the first exception (in item order) is
    re-raised after all domains have drained.
    @raise Invalid_argument if [jobs] or [chunk] is not positive. *)

type problem = { graph : Graph.t; source : Graph.vertex; sink : Graph.vertex }

val max_flows :
  ?jobs:int ->
  ?chunk:int ->
  ?solver:[ `Auto ] ->
  ?method_:Pipeline.method_ ->
  problem list ->
  float list
(** Flow value of every problem, in order, computed across domains.
    [method_] defaults to {!Pipeline.Pre_sim}.  [solver] is accepted
    and ignored, as in {!Lp_flow.solve}: the end-to-end benchmark under
    [perfbench/] still passes [~solver:`Auto].
    @raise Pipeline.Solver_failure as {!Pipeline.compute}. *)

val map_reduce :
  jobs:int ->
  ?chunk:int ->
  ?stop:bool Atomic.t ->
  n:int ->
  init:(unit -> 'acc) ->
  body:('acc -> int -> unit) ->
  merge:('acc -> 'acc -> 'acc) ->
  unit ->
  'acc
(** [map_reduce ~jobs ~n ~init ~body ~merge ()] folds the index range
    [0 .. n-1] on [jobs] domains, the calling one included (never more
    than there are chunks; [jobs = 1] runs every chunk on the calling
    domain): indices are grouped into [chunk]-sized
    blocks handed out from an atomic cursor, every block folds into a
    fresh [init ()] accumulator via [body], and block accumulators are
    combined with [merge] {e in index order} after all domains join.
    The chunk layout depends only on [n] and [chunk], so for a
    deterministic [body] the result is bit-identical across job counts
    — including floating-point accumulation order.  [stop], when
    provided and set (by [body] itself or by another domain), ends the
    reduce cooperatively: no further chunk is claimed, the in-flight
    per-index loops finish their current index and stop, and the
    accumulators folded so far still merge.  If any [body] call
    raises, the first exception in index order is re-raised after all
    domains drain.  [n = 0] returns [init ()].
    @raise Invalid_argument if [jobs] or [chunk] is not positive or
    [n] is negative. *)
