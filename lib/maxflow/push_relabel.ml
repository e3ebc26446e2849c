let eps = Tin_util.Fcmp.(default_policy.path_eps)

(* Highest-label push-relabel with the gap heuristic.  Excess at the
   source is initialised by saturating its outgoing arcs; nodes with
   positive excess (except source/sink) are kept in per-height
   buckets. *)
let max_flow (net : Net.t) ~source ~sink =
  if source = sink then invalid_arg "Push_relabel.max_flow: source = sink";
  let { Net.n; first; head; twin; res; _ } = net in
  let augment a f =
    res.(a) <- res.(a) -. f;
    res.(twin.(a)) <- res.(twin.(a)) +. f
  in
  let height = Array.make n 0 in
  let excess = Array.make n 0.0 in
  let current = Array.sub first 0 n in
  (* arc cursor per node *)
  (* Buckets of active nodes by height; [highest] tracks the topmost
     non-empty bucket. *)
  let buckets = Array.make ((2 * n) + 2) [] in
  let highest = ref 0 in
  (* Number of nodes at each height, for the gap heuristic. *)
  let height_count = Array.make ((2 * n) + 2) 0 in
  let activate v =
    (* Nodes lifted above 2n cannot reach the sink nor the source any
       more; in exact arithmetic the preflow invariant keeps active
       heights below 2n, so anything beyond is epsilon-sized residue —
       re-queueing it would livelock the drain loop. *)
    if v <> source && v <> sink && excess.(v) > eps && height.(v) <= 2 * n then begin
      buckets.(height.(v)) <- v :: buckets.(height.(v));
      if height.(v) > !highest then highest := height.(v)
    end
  in
  height.(source) <- n;
  Array.iteri (fun v _ -> if v <> source then height_count.(height.(v)) <- height_count.(height.(v)) + 1) height;
  (* Saturate source arcs. *)
  for a = first.(source) to first.(source + 1) - 1 do
    let r = res.(a) in
    if r > eps then begin
      let u = head.(a) in
      augment a r;
      excess.(u) <- excess.(u) +. r;
      excess.(source) <- excess.(source) -. r
    end
  done;
  Array.iteri (fun v _ -> activate v) height;
  let relabel v =
    (* Find the lowest admissible height among residual arcs. *)
    let old = height.(v) in
    let best = ref max_int in
    for a = first.(v) to first.(v + 1) - 1 do
      if res.(a) > eps then begin
        let h = height.(head.(a)) in
        (* Parked neighbours (height > 2n) lead nowhere. *)
        if h <= 2 * n && h < !best then best := h
      end
    done;
    if !best < max_int then begin
      (* Theory bounds heights by 2n - 1 for nodes holding excess, so
         no cap is needed. *)
      height_count.(old) <- height_count.(old) - 1;
      height.(v) <- !best + 1;
      height_count.(height.(v)) <- height_count.(height.(v)) + 1;
      current.(v) <- first.(v);
      (* Gap heuristic: if no node remains at [old], every node above
         [old] (below n) can never push to the sink again — lift them
         past n at once. *)
      if height_count.(old) = 0 && old < n then
        for u = 0 to n - 1 do
          if u <> source && height.(u) > old && height.(u) < n then begin
            height_count.(height.(u)) <- height_count.(height.(u)) - 1;
            height.(u) <- n + 1;
            height_count.(height.(u)) <- height_count.(height.(u)) + 1
          end
        done
    end
    else begin
      (* No residual arc at all: park the node out of reach. *)
      height_count.(old) <- height_count.(old) - 1;
      height.(v) <- (2 * n) + 1;
      height_count.(height.(v)) <- height_count.(height.(v)) + 1
    end
  in
  let discharge v =
    let stop = first.(v + 1) in
    while excess.(v) > eps && height.(v) <= 2 * n do
      if current.(v) >= stop then relabel v
      else begin
        let a = current.(v) in
        let u = head.(a) in
        let r = res.(a) in
        if r > eps && height.(v) = height.(u) + 1 then begin
          let f = Float.min excess.(v) r in
          augment a f;
          excess.(v) <- excess.(v) -. f;
          let was_inactive = excess.(u) <= eps in
          excess.(u) <- excess.(u) +. f;
          if was_inactive then activate u
        end
        else current.(v) <- current.(v) + 1
      end
    done
  in
  let rec drain () =
    if !highest >= 0 then begin
      match buckets.(!highest) with
      | [] ->
          if !highest = 0 then ()
          else begin
            decr highest;
            drain ()
          end
      | v :: rest ->
          buckets.(!highest) <- rest;
          (* The node may have been relabelled since activation. *)
          if v <> source && v <> sink && excess.(v) > eps then begin
            if height.(v) <> !highest then activate v
            else begin
              discharge v;
              activate v
            end
          end;
          drain ()
    end
  in
  drain ();
  excess.(sink)
