type arc = int

type t = {
  n : int;
  first : int array;
  head : int array;
  twin : arc array;
  cap : float array;
  res : float array;
  fwd : arc array;
}

(* Counting sort of the 2m slots by the node they leave.  Input arc k
   contributes its forward slot (leaving [src.(k)]) then its twin
   (leaving [dst.(k)]); filling in input order keeps each node's slots
   in the order the arcs were given. *)
let of_arcs ~n ~src ~dst ~cap =
  let m = Array.length src in
  if Array.length dst <> m || Array.length cap <> m then invalid_arg "Net.of_arcs: length mismatch";
  let first = Array.make (n + 1) 0 in
  for k = 0 to m - 1 do
    let s = src.(k) and d = dst.(k) and c = cap.(k) in
    if Float.is_nan c || c < 0.0 then invalid_arg "Net.of_arcs: bad capacity";
    if s < 0 || s >= n || d < 0 || d >= n then invalid_arg "Net.of_arcs: node out of range";
    first.(s + 1) <- first.(s + 1) + 1;
    first.(d + 1) <- first.(d + 1) + 1
  done;
  for v = 1 to n do
    first.(v) <- first.(v) + first.(v - 1)
  done;
  let next = Array.sub first 0 n in
  let head = Array.make (2 * m) 0
  and twin = Array.make (2 * m) 0
  and cap_of = Array.make (2 * m) 0.0
  and fwd = Array.make m 0 in
  for k = 0 to m - 1 do
    let s = src.(k) and d = dst.(k) in
    let a = next.(s) in
    next.(s) <- a + 1;
    let r = next.(d) in
    next.(d) <- r + 1;
    head.(a) <- d;
    head.(r) <- s;
    twin.(a) <- r;
    twin.(r) <- a;
    cap_of.(a) <- cap.(k);
    fwd.(k) <- a
  done;
  { n; first; head; twin; cap = cap_of; res = Array.copy cap_of; fwd }

(* Flow on a forward arc equals the residual capacity accumulated on
   its twin. *)
let flow t a =
  let r = t.twin.(a) in
  t.res.(r) -. t.cap.(r)
