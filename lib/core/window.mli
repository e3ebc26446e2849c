(** Time-restricted flow computation.

    The paper's conclusion notes that all of its techniques apply
    unchanged to the time-restricted problem — "simply disregarding
    all interactions that happened outside the window".  This module
    provides that restriction, windowed flow computation, and flow
    profiles over time (how much had flowed by each instant, the
    natural question an analyst asks after "how much flowed"). *)

val restrict : ?from_time:float -> ?until:float -> Graph.t -> Graph.t
(** [restrict ~from_time ~until g] keeps exactly the interactions whose
    timestamp lies in the {b closed} interval [[from_time, until]]:
    both endpoints are inclusive, so an interaction at [t = from_time]
    or [t = until] survives (defaults: unbounded on either side).
    Sliding-window maintainers rely on the left boundary — with window
    width [w] and stream head [last], [restrict ~from_time:(last -. w)]
    retains an interaction at exactly [last -. w], which is what the
    [tinflow serve] daemon's eviction implements and its tests pin
    down.  Edges whose sequence empties disappear; all vertices
    remain, so source/sink designations stay valid. *)

val max_flow :
  ?from_time:float ->
  ?until:float ->
  Graph.t ->
  source:Graph.vertex ->
  sink:Graph.vertex ->
  float
(** Maximum flow using only in-window interactions, by
    {!Pipeline.max_flow}: the greedy scan when Lemma 2 holds, Dinic on
    the time-expanded network otherwise. *)

val greedy_profile :
  Graph.t -> source:Graph.vertex -> sink:Graph.vertex -> (float * float) list
(** The sink's buffer over time under the greedy model: one
    [(t, cumulative flow)] step per interaction that increased it,
    computed by a single scan. *)

val max_flow_profile :
  ?points:float list ->
  Graph.t ->
  source:Graph.vertex ->
  sink:Graph.vertex ->
  (float * float) list
(** [(τ, maximum flow using interactions up to τ)] for each requested
    prefix endpoint (default: every distinct timestamp of interactions
    entering the sink — the only instants where the value can change).
    The maximum flow is recomputed per point: O(points × one
    {!Pipeline.max_flow}). *)
