(** Wall-clock measurement helpers for the benchmark harness. *)

val now_ns : unit -> int64
(** Monotonic wall clock in nanoseconds, read through the
    [caml_tin_clock_ns] C stub ([clock_gettime(CLOCK_MONOTONIC)];
    [mach_absolute_time] on macOS) — no [Unix] dependency and no
    [Sys.time] fallback.  Precision is far below the millisecond-scale
    measurements reported by the paper. *)

val time_f : (unit -> 'a) -> 'a * float
(** [time_f f] runs [f ()] and returns its result together with the
    elapsed wall time in seconds. *)

val time_ms : (unit -> 'a) -> 'a * float
(** Like {!time_f} but in milliseconds. *)
