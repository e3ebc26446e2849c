let eps = Tin_util.Fcmp.(default_policy.path_eps)

let max_flow (net : Net.t) ~source ~sink =
  if source = sink then invalid_arg "Edmonds_karp.max_flow: source = sink";
  let { Net.n; first; head; twin; res; _ } = net in
  let pred = Array.make n (-1) in
  (* pred.(v) = arc that reached v *)
  let queue = Array.make n 0 in
  let total = ref 0.0 in
  let found = ref true in
  while !found do
    Array.fill pred 0 n (-1);
    pred.(source) <- -2;
    queue.(0) <- source;
    let qh = ref 0 and qt = ref 1 in
    found := false;
    while (not !found) && !qh < !qt do
      let v = queue.(!qh) in
      incr qh;
      let a = ref first.(v) and stop = first.(v + 1) in
      while (not !found) && !a < stop do
        let u = head.(!a) in
        if pred.(u) = -1 && res.(!a) > eps then begin
          pred.(u) <- !a;
          if u = sink then found := true
          else begin
            queue.(!qt) <- u;
            incr qt
          end
        end;
        incr a
      done
    done;
    if !found then begin
      (* Bottleneck along the predecessor chain, then push it. *)
      let f = ref infinity and v = ref sink in
      while !v <> source do
        let a = pred.(!v) in
        if res.(a) < !f then f := res.(a);
        v := head.(twin.(a))
      done;
      v := sink;
      while !v <> source do
        let a = pred.(!v) in
        let b = twin.(a) in
        res.(a) <- res.(a) -. !f;
        res.(b) <- res.(b) +. !f;
        v := head.(b)
      done;
      total := !total +. !f
    end
  done;
  !total
