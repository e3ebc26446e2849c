(** Capacitated flow network with residual arcs, in compressed sparse
    row (CSR) form.

    The classic static max-flow substrate.  The paper's maximum-flow
    problem reduces to static max flow on a time-expanded network
    (Akrida et al., CIAC 2017); {!Time_expand} builds that network and
    {!Dinic} solves it, giving an oracle that is independent of the LP
    path.

    The shape is fixed when the network is built: {!of_arcs} takes
    every arc at once.  Each input arc becomes two {e slots}, its
    forward arc and a zero-capacity residual twin, and the slots are
    grouped by the node they leave: the slots leaving node [v] are
    [first.(v) .. first.(v + 1) - 1], in input order.  {!Dinic} reads
    the arrays directly and mutates [res] in place.  Capacities may be
    [infinity] (holdover arcs). *)

type arc = int
(** A slot index, [0 .. 2m - 1] for [m] input arcs. *)

type t = private {
  n : int;  (** Nodes [0 .. n - 1]. *)
  first : int array;  (** Length [n + 1]: the slots leaving each node. *)
  head : int array;  (** Node each slot enters. *)
  twin : arc array;  (** The paired slot: a forward arc's residual twin, and back. *)
  cap : float array;  (** Original capacity; 0 for residual twins. *)
  res : float array;  (** Remaining capacity in the residual graph; solvers write it. *)
  fwd : arc array;  (** Slot of the forward arc of each input arc. *)
}

val of_arcs : n:int -> src:int array -> dst:int array -> cap:float array -> t
(** Network with [n] nodes and arc [k] from [src.(k)] to [dst.(k)] of
    capacity [cap.(k)]; its forward slot is [fwd.(k)].
    @raise Invalid_argument if the arrays differ in length, a capacity
    is negative or NaN, or a node id is out of range. *)

val flow : t -> arc -> float
(** Current flow on a forward slot (0 before any solver ran); on a
    residual twin, minus the flow of its forward arc. *)
