(* W3C-trace-context identifiers and their domain-local propagation.

   A context is the pair (trace_id, span_id) of the *currently open*
   span; children read it to parent themselves and install their own
   before running their body.  The slot is domain-local storage, so
   propagation across [Domain.spawn] is explicit: capture [current ()]
   in the parent, reinstall with [with_ctx] inside the child (Batch
   does exactly this for its workers).

   Id generation is a lock-free SplitMix64 finalizer over a global
   atomic counter: unique across domains without coordination, seeded
   from wall clock and pid so concurrent processes do not collide. *)

type t = { trace_id : string; span_id : string }

(* ---- id generation ------------------------------------------------ *)

let splitmix64 (x : int64) : int64 =
  let open Int64 in
  let z = add x 0x9E3779B97F4A7C15L in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let seed =
  let t = Unix.gettimeofday () in
  Int64.logxor
    (Int64.bits_of_float t)
    (splitmix64 (Int64.of_int (Unix.getpid ())))

let ctr = Atomic.make 0

let next64 () =
  let n = Atomic.fetch_and_add ctr 1 in
  let v = splitmix64 (Int64.logxor seed (Int64.of_int n)) in
  if v = 0L then 1L else v

(* Lowercase zero-padded hex, as [%016Lx] prints it; Printf cost most
   of a flight-recorded span. *)
let hex16 x =
  String.init 16 (fun d ->
      "0123456789abcdef".[Int64.to_int (Int64.shift_right_logical x (60 - (4 * d))) land 15])

let fresh_trace_id () = hex16 (next64 ()) ^ hex16 (next64 ())
let fresh_span_id () = hex16 (next64 ())

(* ---- domain-local current context --------------------------------- *)

let slot : t option ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref None)
let cell () = Domain.DLS.get slot
let current () = !(cell ())

let with_ctx ctx f =
  let c = cell () in
  let saved = !c in
  c := ctx;
  match f () with
  | r ->
      c := saved;
      r
  | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      c := saved;
      Printexc.raise_with_backtrace e bt

(* ---- W3C traceparent ----------------------------------------------- *)

let is_hex s =
  String.for_all
    (function '0' .. '9' | 'a' .. 'f' -> true | _ -> false)
    s

let all_zero s = String.for_all (fun c -> c = '0') s

let of_traceparent s =
  let s = String.trim s in
  (* version "00": 2-hex version, 32-hex trace-id, 16-hex parent-id,
     2-hex flags, dash-separated.  Reject the forbidden version ff,
     all-zero ids, and anything malformed. *)
  if String.length s < 55 then None
  else
    match String.split_on_char '-' s with
    | version :: trace_id :: parent_id :: _flags :: _ ->
        (* Hex must be lowercase: the spec invalidates uppercase ids
           rather than normalizing them. *)
        if
          String.length version = 2
          && is_hex version
          && version <> "ff"
          && String.length trace_id = 32
          && is_hex trace_id
          && (not (all_zero trace_id))
          && String.length parent_id = 16
          && is_hex parent_id
          && not (all_zero parent_id)
        then Some { trace_id; span_id = parent_id }
        else None
    | _ -> None

let to_traceparent { trace_id; span_id } =
  let span_id = if span_id = "" then String.make 16 '0' else span_id in
  Printf.sprintf "00-%s-%s-01" trace_id span_id
