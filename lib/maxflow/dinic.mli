(** Dinic's maximum-flow algorithm: BFS level graph + blocking flow by
    current-arc descents, one augmenting path per descent, O(V²·E)
    (much faster in practice on the sparse time-expanded networks
    produced by {!Time_expand}).  It reads the {!Net.t} arrays directly;
    beyond its four node-indexed working arrays a solve allocates a
    constant number of words, whatever the network's size. *)

val max_flow : Net.t -> source:int -> sink:int -> float
(** Computes the maximum [source]→[sink] flow, mutating the network's
    residual capacities.  Returns the flow value.
    @raise Invalid_argument if [source = sink]. *)
