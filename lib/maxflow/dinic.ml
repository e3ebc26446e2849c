let eps = Tin_util.Fcmp.(default_policy.path_eps)

(* The working arrays are allocated once per call and the phase loop
   allocates nothing: no closures, no queue cells, no boxed floats. *)
let max_flow (net : Net.t) ~source ~sink =
  if source = sink then invalid_arg "Dinic.max_flow: source = sink";
  let { Net.n; first; head; twin; res; _ } = net in
  let level = Array.make n (-1) in
  let queue = Array.make n 0 in
  (* Current arc per node, so each arc is examined O(1) times per phase. *)
  let iter = Array.make n 0 in
  (* The slots of the current descent: levels increase along it, so it
     has fewer than n of them. *)
  let path = Array.make n 0 in
  let total = ref 0.0 in
  let phases = ref true in
  while !phases do
    (* BFS level graph over arcs with residual capacity.  It stops once
       the sink is labelled: every node below the sink's level is
       labelled by then, and no node at or past it leads to the sink,
       so the descents find the same paths as over a full labelling. *)
    Array.fill level 0 n (-1);
    level.(source) <- 0;
    queue.(0) <- source;
    let qh = ref 0 and qt = ref 1 in
    while !qh < !qt && level.(sink) < 0 do
      let v = queue.(!qh) in
      incr qh;
      let lu = level.(v) + 1 in
      for a = first.(v) to first.(v + 1) - 1 do
        let u = head.(a) in
        if level.(u) < 0 && res.(a) > eps then begin
          level.(u) <- lu;
          queue.(!qt) <- u;
          incr qt
        end
      done
    done;
    if level.(sink) < 0 then phases := false
    else begin
      Array.blit first 0 iter 0 n;
      (* Blocking flow: each descent follows admissible arcs from the
         source and augments the one path it finds.  A node with no
         admissible arc left is a dead end: step back and advance the
         current arc of its predecessor. *)
      let descents = ref true in
      while !descents do
        (* [v] becomes -1 once the source itself is a dead end. *)
        let depth = ref 0 and v = ref source in
        while !v <> sink && !v >= 0 do
          let x = !v in
          let stop = first.(x + 1) and lu = level.(x) + 1 in
          let a = ref iter.(x) in
          while !a < stop && not (level.(head.(!a)) = lu && res.(!a) > eps) do
            incr a
          done;
          iter.(x) <- !a;
          if !a < stop then begin
            path.(!depth) <- !a;
            incr depth;
            v := head.(!a)
          end
          else if !depth = 0 then v := -1
          else begin
            decr depth;
            let u = head.(twin.(path.(!depth))) in
            iter.(u) <- iter.(u) + 1;
            v := u
          end
        done;
        if !v < 0 then descents := false
        else begin
          let f = ref infinity in
          for i = 0 to !depth - 1 do
            let r = res.(path.(i)) in
            if r < !f then f := r
          done;
          for i = 0 to !depth - 1 do
            let a = path.(i) in
            let b = twin.(a) in
            res.(a) <- res.(a) -. !f;
            res.(b) <- res.(b) +. !f
          done;
          total := !total +. !f
        end
      done
    end
  done;
  !total
