module Obs = Tin_obs.Obs
module Kernel = Greedy.Kernel

let c_touches = Obs.Counter.make "online.buffer_touches"

type t = { kernel : Kernel.t; mutable pushed : int }

let create ~source ~sink =
  if source = sink then invalid_arg "Online.create: source = sink";
  { kernel = Kernel.create ~source ~sink; pushed = 0 }

let push t ~src ~dst i =
  if src = dst then invalid_arg "Online.push: self-loop";
  if i.Interaction.time < Kernel.now t.kernel then
    invalid_arg "Online.push: timestamps must be non-decreasing";
  t.pushed <- t.pushed + 1;
  let moved = Kernel.push t.kernel ~src ~dst i in
  if moved > 0.0 then Obs.Counter.incr c_touches;
  moved

let of_graph g ~source ~sink =
  let t = create ~source ~sink in
  let inters = Graph.interactions_sorted g in
  Kernel.replay t.kernel inters;
  Obs.Counter.add c_touches (Kernel.touches t.kernel);
  t.pushed <- Array.length inters;
  t

let flow t = Kernel.flow t.kernel
let buffer t v = Kernel.buffer t.kernel v

let last_time t =
  let now = Kernel.now t.kernel in
  if Float.is_nan now then None else Some now

let n_pushed t = t.pushed
