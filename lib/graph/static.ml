(* Alias of [Compact] for the benchmark sources that still name it;
   new code uses [Compact]. *)
include Compact

let interactions t e = Array.of_list (edge_interactions t e)
