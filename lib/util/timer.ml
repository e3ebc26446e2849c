(* We avoid depending on Unix by using the monotonic counters exposed
   through Sys/Gc; OCaml 4.07+ provides [Sys.time] (CPU) but wall time
   needs either Unix or mtime.  [Sys.opaque_identity] keeps the
   measured thunk from being optimized away. *)

external clock_gettime_ns : unit -> int64 = "caml_tin_clock_ns"

let now_ns () = clock_gettime_ns ()

let time_f f =
  let t0 = now_ns () in
  let r = Sys.opaque_identity (f ()) in
  let t1 = now_ns () in
  (r, Int64.to_float (Int64.sub t1 t0) /. 1e9)

let time_ms f =
  let r, s = time_f f in
  (r, s *. 1e3)
