type t = { width : int; verts : int array; flows : floatarray; offsets : int array }

let n_rows t = Float.Array.length t.flows
let width t = t.width
let vert t r i = t.verts.((r * t.width) + i)
let flow t r = Float.Array.get t.flows r

let iter_start t v f =
  for r = t.offsets.(v) to t.offsets.(v + 1) - 1 do
    f r
  done

let starts t =
  let acc = ref [] in
  for v = Array.length t.offsets - 2 downto 0 do
    if t.offsets.(v + 1) > t.offsets.(v) then acc := v :: !acc
  done;
  !acc

let find t key =
  let v0 = key.(0) in
  if Array.length key <> t.width || v0 < 0 || v0 + 1 >= Array.length t.offsets then None
  else begin
    let rec cmp base i =
      if i = t.width then 0
      else
        let c = Int.compare t.verts.(base + i) key.(i) in
        if c <> 0 then c else cmp base (i + 1)
    in
    let rec search lo hi =
      if lo >= hi then None
      else begin
        let mid = (lo + hi) / 2 in
        let c = cmp (mid * t.width) 0 in
        if c = 0 then Some mid else if c < 0 then search (mid + 1) hi else search lo mid
      end
    in
    search t.offsets.(v0) t.offsets.(v0 + 1)
  end

(* Per-vertex row counts in [offsets.(v + 1)] become start offsets. *)
let accumulate offsets =
  for v = 0 to Array.length offsets - 2 do
    offsets.(v + 1) <- offsets.(v + 1) + offsets.(v)
  done

let of_sorted ~n_vertices ~width verts flows =
  let offsets = Array.make (n_vertices + 1) 0 in
  for r = 0 to Float.Array.length flows - 1 do
    let a = verts.(r * width) in
    offsets.(a + 1) <- offsets.(a + 1) + 1
  done;
  accumulate offsets;
  { width; verts; flows; offsets }

let splice ?ids ~n_vertices t verts flows =
  let w = t.width and n_old = n_rows t and k = Float.Array.length flows in
  let old = match ids with None -> t.verts | Some ids -> Array.map (Array.get ids) t.verts in
  let cmp r j =
    let c = ref 0 and i = ref 0 in
    while !c = 0 && !i < w do
      c := Int.compare old.((r * w) + !i) verts.((j * w) + !i);
      incr i
    done;
    !c
  in
  (* [at.(j)]: the first old row not below new row [j]. *)
  let at = Array.make k 0 and replaced = ref 0 and lo = ref 0 in
  for j = 0 to k - 1 do
    let hi = ref n_old in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if cmp mid j < 0 then lo := mid + 1 else hi := mid
    done;
    at.(j) <- !lo;
    if !lo < n_old && cmp !lo j = 0 then incr replaced
  done;
  let rows = n_old + k - !replaced in
  let out_verts = Array.make (rows * w) 0 and out_flows = Float.Array.create rows in
  let r = ref 0 and o = ref 0 in
  let keep upto =
    Array.blit old (!r * w) out_verts (!o * w) ((upto - !r) * w);
    Float.Array.blit t.flows !r out_flows !o (upto - !r);
    o := !o + upto - !r;
    r := upto
  in
  for j = 0 to k - 1 do
    keep at.(j);
    Array.blit verts (j * w) out_verts (!o * w) w;
    Float.Array.set out_flows !o (Float.Array.get flows j);
    incr o;
    if !r < n_old && cmp !r j = 0 then incr r
  done;
  keep n_old;
  of_sorted ~n_vertices ~width:w out_verts out_flows

(* --- the flow-only Lemma-3 reduction ------------------------------ *)

(* Scan state over [net] for a positional chain of up to
   [Array.length edges] hops.  Run [p] is edge [edges.(p)]'s
   interactions; [next.(p)] is the index of its head within the run
   and [stop.(p)] the run's length, and the head's time and quantity
   are cached in [head_time]/[head_qty].  [avail.(p)] is what position
   [p] can send now (infinite at the source, position 0);
   [pending.(p)] holds what arrived at the current timestamp, usable
   only once time moves on. *)
type scratch = {
  net : Compact.t;
  time : floatarray;
  qty : floatarray;
  edges : int array;
  next : int array;
  stop : int array;
  head_time : floatarray;
  head_qty : floatarray;
  avail : floatarray;
  pending : floatarray;
}

let scratch net hops =
  let { Compact.c_time = time; c_qty = qty; _ } = Compact.columns net in
  {
    net;
    time;
    qty;
    edges = Array.make hops 0;
    next = Array.make hops 0;
    stop = Array.make hops 0;
    head_time = Float.Array.make hops 0.0;
    head_qty = Float.Array.make hops 0.0;
    avail = Float.Array.make hops 0.0;
    pending = Float.Array.make hops 0.0;
  }

let load_head sc p =
  let i = Compact.edge_inter sc.net sc.edges.(p) sc.next.(p) in
  Float.Array.set sc.head_time p (Float.Array.get sc.time i);
  Float.Array.set sc.head_qty p (Float.Array.get sc.qty i)

(* The greedy scan of [Greedy.arrivals_at_sink] on the chain
   0 → 1 → … → k visits interactions in (time, qty, position) order.
   Every run is already in (time, qty) order, so a k-way merge of the
   runs — each step taking the smallest head, ties to the lower
   position — visits them in exactly that order without sorting.  The
   flow sums what reaches position [k] from 0.0 in scan order, as
   [Interaction.total_qty] sums the arrivals. *)
let reduce sc k =
  for p = 0 to k - 1 do
    sc.next.(p) <- 0;
    sc.stop.(p) <- Compact.edge_n_inter sc.net sc.edges.(p);
    if sc.stop.(p) > 0 then load_head sc p;
    Float.Array.set sc.avail p (if p = 0 then infinity else 0.0);
    Float.Array.set sc.pending p 0.0
  done;
  let flow = ref 0.0 and now = ref nan and finished = ref false in
  while not !finished do
    let best = ref (-1) in
    for p = 0 to k - 1 do
      if sc.next.(p) < sc.stop.(p) then
        if !best < 0 then best := p
        else begin
          let tp = Float.Array.get sc.head_time p and tb = Float.Array.get sc.head_time !best in
          if
            tp < tb
            || (tp = tb && Float.Array.get sc.head_qty p < Float.Array.get sc.head_qty !best)
          then best := p
        end
    done;
    let p = !best in
    if p < 0 then finished := true
    else begin
      let tm = Float.Array.get sc.head_time p and q = Float.Array.get sc.head_qty p in
      sc.next.(p) <- sc.next.(p) + 1;
      if sc.next.(p) < sc.stop.(p) then load_head sc p;
      if not (Float.equal !now tm) then begin
        for u = 1 to k - 1 do
          let w = Float.Array.get sc.pending u in
          if w > 0.0 then Float.Array.set sc.avail u (Float.Array.get sc.avail u +. w);
          Float.Array.set sc.pending u 0.0
        done;
        now := tm
      end;
      let b = Float.Array.get sc.avail p in
      let moved = Float.min q b in
      if moved > 0.0 then begin
        if p <> 0 then Float.Array.set sc.avail p (b -. moved);
        if p + 1 = k then flow := !flow +. moved
        else Float.Array.set sc.pending (p + 1) (Float.Array.get sc.pending (p + 1) +. moved)
      end
    end
  done;
  !flow

let chain_flow net edges =
  let k = Array.length edges in
  let sc = scratch net k in
  Array.blit edges 0 sc.edges 0 k;
  reduce sc k

let chain_flows net ~hops edges =
  let sc = scratch net hops in
  let flows = Float.Array.create (Array.length edges / hops) in
  for r = 0 to Float.Array.length flows - 1 do
    Array.blit edges (r * hops) sc.edges 0 hops;
    Float.Array.set flows r (reduce sc hops)
  done;
  flows

(* --- two-pass build ------------------------------------------------ *)

(* [paths a row] calls [row b c e0 e1 e2] for every path anchored at
   [a], in ascending (b, c) order: the path is a → b (→ c), with [c]
   [-1] when [width = 2], and e0, e1 (, e2) are the edges of its
   [hops] hops, with [e2] [-1] when [hops = 2]. *)
let build ?(jobs = 1) ~width ~hops net paths =
  let n = Compact.n_vertices net in
  let shard ~init ~body =
    Tin_core.Batch.map_reduce ~jobs ~chunk:32 ~n ~init ~body ~merge:(fun acc _ -> acc) ()
  in
  let offsets = Array.make (n + 1) 0 in
  shard ~init:ignore ~body:(fun () a ->
      let c = ref 0 in
      paths a (fun _ _ _ _ _ -> incr c);
      offsets.(a + 1) <- !c);
  accumulate offsets;
  let verts = Array.make (offsets.(n) * width) 0 and flows = Float.Array.create offsets.(n) in
  ignore
    (shard
       ~init:(fun () -> scratch net hops)
       ~body:(fun sc a ->
         let r = ref offsets.(a) in
         paths a (fun b c e0 e1 e2 ->
             let base = !r * width in
             verts.(base) <- a;
             verts.(base + 1) <- b;
             if width = 3 then verts.(base + 2) <- c;
             sc.edges.(0) <- e0;
             sc.edges.(1) <- e1;
             if hops = 3 then sc.edges.(2) <- e2;
             Float.Array.set flows !r (reduce sc hops);
             incr r);
         assert (!r = offsets.(a + 1))));
  { width; verts; flows; offsets }

let cycles2 ?jobs net =
  build ?jobs ~width:2 ~hops:2 net (fun a row ->
      Compact.iter_succs net a (fun b e_ab ->
          match Compact.find_edge net ~src:b ~dst:a with
          | Some e_ba -> row b (-1) e_ab e_ba (-1)
          | None -> ()))

let cycles3 ?jobs net =
  build ?jobs ~width:3 ~hops:3 net (fun a row ->
      Compact.iter_succs net a (fun b e_ab ->
          if b <> a then
            Compact.iter_succs net b (fun c e_bc ->
                if c <> a && c <> b then
                  match Compact.find_edge net ~src:c ~dst:a with
                  | Some e_ca -> row b c e_ab e_bc e_ca
                  | None -> ())))

let chains2 ?jobs net =
  build ?jobs ~width:3 ~hops:2 net (fun a row ->
      Compact.iter_succs net a (fun b e_ab ->
          Compact.iter_succs net b (fun c e_bc ->
              if c <> a && c <> b then row b c e_ab e_bc (-1))))
