(* The streaming ingestion daemon behind [tinflow serve]: the
   incremental HTTP request parser's chunk-boundary cases, the ingest
   JSON-lines decoder, and the daemon's two exactness contracts —
   windowed flow equal to a batch greedy recomputation after every
   chunk, and delta-maintained tables equal to a from-scratch
   precomputation after every tick. *)

open Tin_testlib
module Serve = Tin_obs.Serve
module Request = Tin_obs.Serve.Request
module Daemon = Tin_daemon.Daemon
module Ingest = Tin_daemon.Ingest
module Greedy = Tin_core.Greedy
module Window = Tin_core.Window
module Catalog = Tin_patterns.Catalog
module Delta = Tin_patterns.Delta
module Prng = Tin_util.Prng

(* --- request parser ------------------------------------------------ *)

let feed_all p chunks =
  List.fold_left
    (fun acc chunk ->
      match acc with
      | `More -> Request.feed p chunk
      | terminal -> terminal)
    `More chunks

let check_done msg result ~meth ~target ~body =
  match result with
  | `Done r ->
      Alcotest.(check string) (msg ^ ": method") meth r.Request.meth;
      Alcotest.(check string) (msg ^ ": target") target r.Request.target;
      Alcotest.(check string) (msg ^ ": body") body r.Request.body
  | `More -> Alcotest.fail (msg ^ ": incomplete")
  | `Head_too_large -> Alcotest.fail (msg ^ ": head too large")
  | `Body_too_large -> Alcotest.fail (msg ^ ": body too large")
  | `Malformed -> Alcotest.fail (msg ^ ": malformed")

let test_parser_single_chunk () =
  check_done "one chunk"
    (feed_all (Request.parser ()) [ "GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n" ])
    ~meth:"GET" ~target:"/metrics" ~body:""

(* The quadratic-rescan bug showed at chunk boundaries: the terminator
   arriving split across two reads.  Split the request at every byte
   position — all four \r\n\r\n split points included — and demand the
   identical parse. *)
let test_parser_every_split () =
  let raw = "GET /metrics HTTP/1.1\r\nHost: localhost\r\n\r\n" in
  for cut = 1 to String.length raw - 1 do
    let a = String.sub raw 0 cut in
    let b = String.sub raw cut (String.length raw - cut) in
    check_done
      (Printf.sprintf "split at %d" cut)
      (feed_all (Request.parser ()) [ a; b ])
      ~meth:"GET" ~target:"/metrics" ~body:""
  done

let test_parser_byte_at_a_time () =
  let raw = "POST /ingest HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello" in
  let chunks = List.init (String.length raw) (fun i -> String.make 1 raw.[i]) in
  check_done "byte at a time" (feed_all (Request.parser ()) chunks) ~meth:"POST"
    ~target:"/ingest" ~body:"hello"

let test_parser_body_split () =
  check_done "body across chunks"
    (feed_all (Request.parser ())
       [ "POST /ingest HTTP/1.1\r\nContent-Length: 11\r\n\r\nhel"; "lo wo"; "rld" ])
    ~meth:"POST" ~target:"/ingest" ~body:"hello world"

let test_parser_bare_lf () =
  check_done "bare LF terminator"
    (feed_all (Request.parser ()) [ "GET /healthz HTTP/1.1\nHost: x\n\n" ])
    ~meth:"GET" ~target:"/healthz" ~body:""

let test_parser_head_too_large () =
  let p = Request.parser ~max_head:32 () in
  let rec pump n acc =
    if n = 0 then acc else pump (n - 1) (Request.feed p "GET /aaaaaaaaaaaaaaaa")
  in
  Alcotest.(check bool) "head overflow detected" true (pump 4 `More = `Head_too_large)

let test_parser_body_too_large () =
  let p = Request.parser ~max_body:8 () in
  let r = Request.feed p "POST /ingest HTTP/1.1\r\nContent-Length: 9\r\n\r\n" in
  Alcotest.(check bool) "declared body over limit" true (r = `Body_too_large)

let test_parser_malformed () =
  Alcotest.(check bool) "garbage request line" true
    (Request.feed (Request.parser ()) "\r\n\r\n" = `Malformed)

(* --- ingest decoding ----------------------------------------------- *)

let test_ingest_parse_line () =
  match Ingest.parse_line {|{"src": 3, "dst": 7, "time": 12.5, "qty": 250}|} with
  | Error e -> Alcotest.fail e
  | Ok e ->
      Alcotest.(check int) "src" 3 e.Ingest.src;
      Alcotest.(check int) "dst" 7 e.Ingest.dst;
      Alcotest.(check (float 1e-9)) "time" 12.5 (Interaction.time e.Ingest.inter);
      Alcotest.(check (float 1e-9)) "qty" 250.0 (Interaction.qty e.Ingest.inter)

let check_error msg needle = function
  | Ok _ -> Alcotest.fail (msg ^ ": expected an error")
  | Error e ->
      let contains hay needle =
        let rec go i =
          i + String.length needle <= String.length hay
          && (String.sub hay i (String.length needle) = needle || go (i + 1))
        in
        go 0
      in
      Alcotest.(check bool) (msg ^ ": error mentions " ^ needle) true (contains e needle)

let test_ingest_errors () =
  check_error "missing qty" "qty" (Ingest.parse_line {|{"src":1,"dst":2,"time":3}|});
  check_error "fractional vertex" "src" (Ingest.parse_line {|{"src":1.5,"dst":2,"time":3,"qty":4}|});
  check_error "not an object" "object" (Ingest.parse_line {|[1,2,3]|});
  check_error "negative qty rejected like the CSV loader" "negative quantity"
    (Ingest.parse_line {|{"src":1,"dst":2,"time":3,"qty":-4}|});
  check_error "line number on the bad line" "line 3"
    (Ingest.parse_body "{\"src\":1,\"dst\":2,\"time\":3,\"qty\":4}\n\nnot json\n")

let test_ingest_body_blank_lines () =
  match Ingest.parse_body "\n{\"src\":1,\"dst\":2,\"time\":3,\"qty\":4}\n\n" with
  | Error e -> Alcotest.fail e
  | Ok entries -> Alcotest.(check int) "one entry" 1 (List.length entries)

(* --- daemon: windowed flow differential ----------------------------- *)

let entry src dst time qty = { Ingest.src; dst; inter = Interaction.make ~time ~qty }

(* Feed a time-sorted random stream in random chunk sizes; after every
   chunk the daemon's flow must be bit-identical to a batch greedy
   recomputation over the restricted window of everything accepted so
   far, and its window must hold exactly that window's interactions in
   the batch scan order, ties included.  (Bit-identical, not
   approximate: the rebuild path replays the canonical order, which is
   the same float operation sequence.) *)
let prop_daemon_flow_matches_batch rng =
  let n = 10 + Prng.int rng 40 in
  let window =
    if Prng.int rng 3 = 0 then infinity else 3.0 +. float_of_int (Prng.int rng 10)
  in
  let stream =
    List.init n (fun _ ->
        let s = Prng.int rng 6 in
        let d = Prng.int rng 6 in
        let d = if d = s then (d + 1) mod 6 else d in
        entry s d (float_of_int (Prng.int rng 25)) (float_of_int (1 + Prng.int rng 9)))
    |> List.stable_sort (fun a b ->
           Float.compare (Interaction.time a.Ingest.inter) (Interaction.time b.Ingest.inter))
  in
  let d = Daemon.create (Daemon.config ~source:0 ~sink:5 ~window ()) in
  let ok = ref true in
  let cumulative = ref Graph.empty in
  let rec go = function
    | [] -> ()
    | stream ->
        let k = 1 + Prng.int rng 7 in
        let chunk = List.filteri (fun i _ -> i < k) stream in
        let rest = List.filteri (fun i _ -> i >= k) stream in
        let r = Daemon.ingest d chunk in
        if r.Daemon.rejected > 0 then ok := false;
        List.iter
          (fun e ->
            cumulative :=
              Graph.add_interaction !cumulative ~src:e.Ingest.src ~dst:e.Ingest.dst
                e.Ingest.inter)
          chunk;
        let last =
          List.fold_left
            (fun acc e -> Float.max acc (Interaction.time e.Ingest.inter))
            neg_infinity chunk
        in
        let expected_g =
          if window = infinity then !cumulative
          else Window.restrict ~from_time:(last -. window) !cumulative
        in
        let expected = Greedy.flow expected_g ~source:0 ~sink:5 in
        if not (Float.equal expected (Daemon.flow d)) then ok := false;
        if Daemon.window d <> Graph.interactions_sorted expected_g then ok := false;
        go rest
  in
  go stream;
  !ok

(* Cross-batch timestamp tie: streaming arrival order differs from the
   canonical (time, qty) order, so the daemon must insert the late
   entry at its canonical position, fall back to the canonical replay
   once, and still report the batch value. *)
let test_daemon_cross_batch_tie () =
  let d = Daemon.create (Daemon.config ~source:0 ~sink:2 ()) in
  ignore (Daemon.ingest d [ entry 0 1 0.0 5.0; entry 1 2 1.0 4.0 ]);
  let rebuilds = (Daemon.stats d).Daemon.rebuilds_total in
  (* Arrives later but ties t=1 with a smaller qty: canonically it
     drains vertex 1 first. *)
  ignore (Daemon.ingest d [ entry 1 3 1.0 3.0 ]);
  let i time qty = Interaction.make ~time ~qty in
  Alcotest.(check bool) "the later, smaller-qty entry sits before the earlier one" true
    (Daemon.window d = [| (0, 1, i 0.0 5.0); (1, 3, i 1.0 3.0); (1, 2, i 1.0 4.0) |]);
  let g =
    Graph.of_edges
      [ (0, 1, [ (0.0, 5.0) ]); (1, 2, [ (1.0, 4.0) ]); (1, 3, [ (1.0, 3.0) ]) ]
  in
  Alcotest.(check bool) "tie forces exact replay" true
    (Float.equal (Greedy.flow g ~source:0 ~sink:2) (Daemon.flow d));
  Check.check_flow "canonical value" 2.0 (Daemon.flow d);
  Alcotest.(check int) "exactly one rebuild" (rebuilds + 1)
    (Daemon.stats d).Daemon.rebuilds_total

let test_daemon_rejects_late_and_self_loops () =
  let d = Daemon.create (Daemon.config ~source:0 ~sink:2 ()) in
  let r = Daemon.ingest d [ entry 0 1 10.0 5.0 ] in
  Alcotest.(check int) "accepted" 1 r.Daemon.accepted;
  let r = Daemon.ingest d [ entry 1 2 5.0 5.0; entry 3 3 11.0 1.0; entry 1 2 12.0 5.0 ] in
  Alcotest.(check int) "late + self-loop rejected" 2 r.Daemon.rejected;
  Alcotest.(check int) "the in-order one accepted" 1 r.Daemon.accepted;
  let st = Daemon.stats d in
  Alcotest.(check int) "rejected_total" 2 st.Daemon.rejected_total;
  Alcotest.(check int) "window holds the accepted two" 2 st.Daemon.window_interactions;
  (* The late interaction is NOT in the flow: 1->2 only relays at t=12. *)
  Check.check_flow "flow from the accepted stream" 5.0 st.Daemon.flow

let test_daemon_eviction () =
  let d = Daemon.create (Daemon.config ~source:0 ~sink:1 ~window:5.0 ()) in
  ignore (Daemon.ingest d [ entry 0 1 0.0 1.0; entry 0 1 2.0 1.0 ]);
  Check.check_flow "both in window" 2.0 (Daemon.flow d);
  ignore (Daemon.ingest d [ entry 0 1 6.0 1.0 ]);
  (* Window is [1, 6]: the t=0 interaction fell off. *)
  let st = Daemon.stats d in
  Alcotest.(check int) "one evicted" 1 st.Daemon.evicted_total;
  Alcotest.(check int) "two in window" 2 st.Daemon.window_interactions;
  Check.check_flow "flow over the window only" 2.0 st.Daemon.flow;
  Alcotest.(check bool) "a rebuild happened" true (st.Daemon.rebuilds_total >= 1);
  (* The window boundary is a closed interval: an interaction exactly
     at last_time - window stays. *)
  ignore (Daemon.ingest d [ entry 0 1 7.0 1.0 ]);
  let st = Daemon.stats d in
  Alcotest.(check int) "t=2 at the boundary survives" 3 st.Daemon.window_interactions

(* --- daemon: delta tables differential ------------------------------ *)

let tables_match_precompute = Check.tables_match_precompute

let prop_daemon_tables_match_precompute rng =
  (* P1 needs the chain table, so this also exercises chains. *)
  let d =
    Daemon.create
      (Daemon.config ~source:0 ~sink:5 ~patterns:[ Catalog.Rigid Catalog.P1 ] ())
  in
  let t = ref 0.0 in
  for _ = 1 to 3 do
    let chunk =
      List.init
        (1 + Prng.int rng 6)
        (fun _ ->
          let s = Prng.int rng 6 in
          let dst = Prng.int rng 6 in
          let dst = if dst = s then (dst + 1) mod 6 else dst in
          t := !t +. float_of_int (Prng.int rng 3);
          entry s dst !t (float_of_int (1 + Prng.int rng 9)))
    in
    ignore (Daemon.ingest d chunk);
    ignore (Daemon.tick d);
    tables_match_precompute "after tick" (Daemon.tables d)
  done;
  true

let test_daemon_alerts_and_cadence () =
  let seen = ref [] in
  let d =
    Daemon.create
      ~on_alert:(fun a -> seen := a :: !seen)
      (Daemon.config ~source:0 ~sink:9 ~cadence:2
         ~patterns:[ Catalog.Rigid Catalog.P2 ] ~min_flow:2.0 ())
  in
  (* A 2-cycle with return flow 3 >= min_flow: must alert on the
     cadence tick triggered by the second accepted interaction. *)
  let r = Daemon.ingest d [ entry 0 1 1.0 5.0; entry 1 0 2.0 3.0 ] in
  (match r.Daemon.alerts with
  | [ a ] ->
      Alcotest.(check string) "pattern" "P2" (Catalog.pattern_name a.Daemon.pattern);
      Alcotest.(check (float 1e-9)) "alert flow" 3.0 a.Daemon.total_flow;
      Alcotest.(check int) "tick index" 1 a.Daemon.tick
  | l -> Alcotest.fail (Printf.sprintf "expected one alert, got %d" (List.length l)));
  Alcotest.(check int) "callback fired" 1 (List.length !seen);
  (* Patterns are evaluated over the cumulative net: a persisting
     instance re-alerts on the next tick (now with the extra 5<->6
     cycle's flow 1 folded into the total). *)
  let r = Daemon.ingest d [ entry 5 6 3.0 1.0; entry 6 5 4.0 1.0 ] in
  (match r.Daemon.alerts with
  | [ a ] -> Alcotest.(check (float 1e-9)) "cumulative alert flow" 4.0 a.Daemon.total_flow
  | l -> Alcotest.fail (Printf.sprintf "expected one alert, got %d" (List.length l)));
  let st = Daemon.stats d in
  Alcotest.(check int) "two cadence ticks" 2 st.Daemon.ticks_total;
  Alcotest.(check int) "two alerts total" 2 st.Daemon.alerts_total;
  Alcotest.(check bool) "table rows were recomputed" true (st.Daemon.rows_recomputed_total > 0)

let test_daemon_min_flow_silences () =
  let d =
    Daemon.create
      (Daemon.config ~source:0 ~sink:9 ~cadence:2 ~patterns:[ Catalog.Rigid Catalog.P2 ]
         ~min_flow:10.0 ())
  in
  let r = Daemon.ingest d [ entry 0 1 1.0 5.0; entry 1 0 2.0 3.0 ] in
  Alcotest.(check int) "flow 3 below min-flow 10: silent" 0 (List.length r.Daemon.alerts);
  Alcotest.(check int) "tick still happened" 1 (Daemon.stats d).Daemon.ticks_total

let test_daemon_base_seed () =
  let base =
    Graph.of_edges [ (0, 1, [ (1.0, 5.0) ]); (1, 2, [ (2.0, 4.0) ]); (2, 1, [ (3.0, 1.0) ]) ]
  in
  let d = Daemon.create ~base (Daemon.config ~source:0 ~sink:2 ()) in
  Alcotest.(check bool) "seeded flow = batch greedy" true
    (Float.equal (Greedy.flow base ~source:0 ~sink:2) (Daemon.flow d));
  (* The seed is also in the tables before any tick. *)
  tables_match_precompute "seeded tables" (Daemon.tables d);
  (* And the stream continues on top of it. *)
  ignore (Daemon.ingest d [ entry 1 2 4.0 1.0 ]);
  let g = Graph.add_interaction base ~src:1 ~dst:2 (Interaction.make ~time:4.0 ~qty:1.0) in
  Alcotest.(check bool) "continues from the seed" true
    (Float.equal (Greedy.flow g ~source:0 ~sink:2) (Daemon.flow d))

(* A tick's pattern search runs on one domain, so a [limit] that
   truncates P2 and P3 keeps the same instances every time: each tick's
   alert equals [Catalog.pb ~jobs:1] at that cap over freshly
   precomputed tables of the same net, and a replay of the stream
   raises the same alerts.  120 vertices span several anchor chunks. *)
let test_daemon_capped_alerts_reproducible () =
  let patterns = [ Catalog.Rigid Catalog.P2; Catalog.Rigid Catalog.P3 ] and limit = 40 in
  let rng = Prng.create ~seed:31 in
  let chunks =
    List.init 4 (fun c ->
        List.init 150 (fun k ->
            let s = Prng.int rng 120 in
            let d = (s + 118 + Prng.int rng 4) mod 120 in
            let d = if d = s then (s + 2) mod 120 else d in
            entry s d (float_of_int ((150 * c) + k)) (float_of_int (1 + Prng.int rng 9))))
  in
  let run () =
    let d = Daemon.create (Daemon.config ~source:0 ~sink:1 ~patterns ~limit ()) in
    List.concat_map
      (fun chunk ->
        ignore (Daemon.ingest d chunk);
        let alerts = Daemon.tick d in
        let net = (Daemon.tables d).Delta.net in
        let fresh = Catalog.precompute net in
        List.iter
          (fun (a : Daemon.alert) ->
            let r = Catalog.pb ~jobs:1 ~limit net fresh a.Daemon.pattern in
            let name = Catalog.pattern_name a.Daemon.pattern in
            Alcotest.(check int) (name ^ " instances") r.Catalog.instances a.Daemon.instances;
            Alcotest.(check bool) (name ^ " flow bits") true
              (Float.equal r.Catalog.total_flow a.Daemon.total_flow))
          alerts;
        List.map (fun (a : Daemon.alert) -> (a.Daemon.instances, a.Daemon.total_flow)) alerts)
      chunks
  in
  let first = run () in
  Alcotest.(check bool) "the cap truncates" true (List.exists (fun (k, _) -> k = limit) first);
  Alcotest.(check (list (pair int (float 0.0)))) "replay raises the same alerts" first (run ())

(* A rebuild replays the window in place: forcing one (an evicting
   entry, then [stats]) allocates the same words on both heaps whether
   the window holds 10k or 40k interactions — the kernel's label
   interning over the same 50 vertices and the stats record, nothing
   per interaction and no copy of the window. *)
let test_daemon_rebuild_allocation () =
  let n_vertices = 50 in
  let rebuild_words n =
    let rng = Prng.create ~seed:7 in
    let stream =
      Array.init n (fun j ->
          let v = Prng.int rng n_vertices in
          let u = (v + 1 + Prng.int rng (n_vertices - 1)) mod n_vertices in
          entry v u (float_of_int (j / 3)) (float_of_int (Prng.int rng 10)))
    in
    (* The window spans the whole stream; an entry one instant later
       evicts the three at t=0. *)
    let last = float_of_int ((n - 1) / 3) in
    let d = Daemon.create (Daemon.config ~source:0 ~sink:1 ~window:last ()) in
    for c = 0 to (n / 1000) - 1 do
      ignore (Daemon.ingest d (Array.to_list (Array.sub stream (c * 1000) 1000)))
    done;
    let before = (Daemon.stats d).Daemon.rebuilds_total in
    ignore (Daemon.ingest d [ entry 2 3 (last +. 1.0) 1.0 ]);
    let w0 = Check.allocated_words () in
    let st = Daemon.stats d in
    let words = Check.allocated_words () -. w0 in
    Alcotest.(check int) "one forced rebuild" (before + 1) st.Daemon.rebuilds_total;
    Alcotest.(check int) "window size" (n - 2) st.Daemon.window_interactions;
    Alcotest.(check bool) "the scan moved quantity" true (st.Daemon.flow > 0.0);
    words
  in
  let small = rebuild_words 10_000 and large = rebuild_words 40_000 in
  Alcotest.(check bool)
    (Printf.sprintf "constant words (%g at 10k, %g at 40k interactions)" small large)
    true (Float.equal small large)

let test_daemon_validation () =
  Alcotest.check_raises "source = sink" (Invalid_argument "Daemon.create: source = sink")
    (fun () -> ignore (Daemon.create (Daemon.config ~source:1 ~sink:1 ())));
  Alcotest.check_raises "bad window"
    (Invalid_argument "Daemon.create: window must be positive") (fun () ->
      ignore (Daemon.create (Daemon.config ~source:0 ~sink:1 ~window:0.0 ())))

(* --- daemon over HTTP ----------------------------------------------- *)

let http ~port request =
  let sock = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close sock with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect sock (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      let payload = Bytes.of_string request in
      let off = ref 0 in
      while !off < Bytes.length payload do
        off := !off + Unix.write sock payload !off (Bytes.length payload - !off)
      done;
      let buf = Bytes.create 4096 in
      let acc = Buffer.create 1024 in
      let rec drain () =
        let got = Unix.read sock buf 0 (Bytes.length buf) in
        if got > 0 then begin
          Buffer.add_subbytes acc buf 0 got;
          drain ()
        end
      in
      drain ();
      Buffer.contents acc)

let post ~port path body =
  http ~port
    (Printf.sprintf
       "POST %s HTTP/1.1\r\nContent-Length: %d\r\nConnection: close\r\n\r\n%s" path
       (String.length body) body)

let get ~port path =
  http ~port (Printf.sprintf "GET %s HTTP/1.1\r\nConnection: close\r\n\r\n" path)

let contains hay needle =
  let rec go i =
    i + String.length needle <= String.length hay
    && (String.sub hay i (String.length needle) = needle || go (i + 1))
  in
  go 0

let test_daemon_http_roundtrip () =
  let d =
    Daemon.create
      (Daemon.config ~source:0 ~sink:2 ~cadence:2 ~patterns:[ Catalog.Rigid Catalog.P2 ] ())
  in
  let srv = Serve.start ~addr:"127.0.0.1" ~port:0 ~routes:(Daemon.routes d) () in
  Fun.protect
    ~finally:(fun () -> Serve.stop srv)
    (fun () ->
      let port = Serve.port srv in
      let body =
        "{\"src\":0,\"dst\":1,\"time\":1,\"qty\":5}\n{\"src\":1,\"dst\":0,\"time\":2,\"qty\":3}\n"
      in
      let resp = post ~port "/ingest" body in
      Alcotest.(check bool) "ingest 200" true (String.starts_with ~prefix:"HTTP/1.1 200" resp);
      Alcotest.(check bool) "accepted both" true (contains resp {|"accepted":2|});
      Alcotest.(check bool) "cadence alert in the response" true
        (contains resp {|"pattern":"P2"|});
      (* Malformed line: 400 with the line number, nothing applied. *)
      let bad = post ~port "/ingest" "{\"src\":0}\n" in
      Alcotest.(check bool) "malformed ingest 400" true
        (String.starts_with ~prefix:"HTTP/1.1 400" bad);
      Alcotest.(check bool) "error names the line" true (contains bad "line 1");
      (* Status reflects the daemon's exact state. *)
      let status = get ~port "/status" in
      Alcotest.(check bool) "status 200" true
        (String.starts_with ~prefix:"HTTP/1.1 200" status);
      Alcotest.(check bool) "accepted_total" true (contains status {|"accepted_total":2|});
      Alcotest.(check bool) "alerts_total" true (contains status {|"alerts_total":1|});
      (* Built-in scrape still works next to the daemon routes. *)
      let metrics = get ~port "/metrics" in
      Alcotest.(check bool) "metrics 200" true
        (String.starts_with ~prefix:"HTTP/1.1 200" metrics))

(* --- observability at the HTTP boundary ----------------------------- *)

module Obs = Tin_obs.Obs

(* Distributed trace continuity is an always-on property: the flight
   recorder keeps spans live even with tracing off, so a request
   carrying a [traceparent] gets a response header in the same trace
   with the server's own span id. *)
let test_traceparent_echo () =
  Obs.reset ();
  Obs.Flight.arm ();
  let d = Daemon.create (Daemon.config ~source:0 ~sink:2 ()) in
  let srv = Serve.start ~addr:"127.0.0.1" ~port:0 ~routes:(Daemon.routes d) () in
  Fun.protect
    ~finally:(fun () ->
      Serve.stop srv;
      Obs.reset ())
    (fun () ->
      let port = Serve.port srv in
      let trace = "4bf92f3577b34da6a3ce929d0e0e4736" in
      let resp =
        http ~port
          (Printf.sprintf
             "GET /status HTTP/1.1\r\n\
              traceparent: 00-%s-00f067aa0ba902b7-01\r\n\
              Connection: close\r\n\
              \r\n"
             trace)
      in
      Alcotest.(check bool) "200" true (String.starts_with ~prefix:"HTTP/1.1 200" resp);
      Alcotest.(check bool) "response continues the client's trace" true
        (contains resp ("traceparent: 00-" ^ trace ^ "-"));
      Alcotest.(check bool) "server minted its own span id" false
        (contains resp "00f067aa0ba902b7");
      (* A garbage traceparent must not kill the request — the server
         starts a fresh trace instead. *)
      let resp =
        http ~port
          "GET /healthz HTTP/1.1\r\ntraceparent: junk\r\nConnection: close\r\n\r\n"
      in
      Alcotest.(check bool) "bad traceparent still 200" true
        (String.starts_with ~prefix:"HTTP/1.1 200" resp);
      Alcotest.(check bool) "fresh trace minted" true (contains resp "traceparent: 00-"))

let test_http_latency_metric () =
  Obs.reset ();
  Obs.enable ();
  Fun.protect
    ~finally:(fun () ->
      Obs.disable ();
      Obs.reset ())
    (fun () ->
      let srv = Serve.start ~addr:"127.0.0.1" ~port:0 () in
      Fun.protect
        ~finally:(fun () -> Serve.stop srv)
        (fun () ->
          let port = Serve.port srv in
          ignore (get ~port "/healthz");
          ignore (get ~port "/no-such-route");
          let scrape = get ~port "/metrics" in
          Alcotest.(check bool) "latency series per route+status" true
            (contains scrape
               "http_request_duration_ms_count{route=\"/healthz\",status=\"200\"}");
          (* Unknown paths share one label value: route cardinality
             stays bounded no matter what clients probe. *)
          Alcotest.(check bool) "404s collapse to unmatched" true
            (contains scrape
               "http_request_duration_ms_count{route=\"unmatched\",status=\"404\"}");
          Alcotest.(check bool) "probed path never becomes a label" false
            (contains scrape "no-such-route{")))

(* A recorded tick names its table update: [delta.apply] under
   [serve.tick], and under it [delta.merge] (the substrate) and one
   [delta.rows] per table, whose row counts add up to the rows
   recomputed. *)
let test_tick_trace_spans () =
  Obs.reset ();
  Obs.enable ();
  Fun.protect
    ~finally:(fun () ->
      Obs.disable ();
      Obs.reset ())
    (fun () ->
      let d =
        Daemon.create (Daemon.config ~source:0 ~sink:9 ~patterns:[ Catalog.Rigid Catalog.P1 ] ())
      in
      ignore (Daemon.ingest d [ entry 0 1 1.0 5.0; entry 1 0 2.0 3.0; entry 1 2 3.0 1.0 ]);
      ignore (Daemon.tick d);
      let named n = List.filter (fun (e : Obs.event) -> e.Obs.name = n) (Obs.trace_events ()) in
      let one n =
        match named n with
        | [ e ] -> e
        | l -> Alcotest.failf "expected one %s span, got %d" n (List.length l)
      in
      let tick = one "serve.tick" and apply = one "delta.apply" in
      Alcotest.(check string) "delta.apply under serve.tick" tick.Obs.span_id apply.Obs.parent_id;
      Alcotest.(check string) "delta.merge under delta.apply" apply.Obs.span_id
        (one "delta.merge").Obs.parent_id;
      let rows = named "delta.rows" in
      List.iter
        (fun (e : Obs.event) ->
          Alcotest.(check string) "delta.rows under delta.apply" apply.Obs.span_id e.Obs.parent_id)
        rows;
      Alcotest.(check (list string)) "one delta.rows per table" [ "l2"; "l3"; "c2" ]
        (List.map (fun (e : Obs.event) -> List.assoc "table" e.Obs.args) rows);
      Alcotest.(check int) "row counts add up"
        (Daemon.stats d).Daemon.rows_recomputed_total
        (List.fold_left
           (fun n (e : Obs.event) -> n + int_of_string (List.assoc "rows" e.Obs.args))
           0 rows))

(* A daemon driven as [tinflow serve] drives it (metrics on, recorder
   armed at its default capacity) records several rings' worth of spans
   in a deterministic soak; the span store stays bounded throughout.
   Each tick re-evaluates three patterns over a few hundred vertices,
   one [catalog.anchor] span per vertex and pattern. *)
let test_span_store_bounded () =
  Obs.reset ();
  Obs.Flight.arm ();
  Obs.enable ();
  Fun.protect
    ~finally:(fun () ->
      Obs.disable ();
      Obs.reset ())
    (fun () ->
      let n = 300 and cap = Obs.Flight.default_capacity in
      let patterns = Catalog.[ Rigid P2; Rigid P3; Relaxed RP3 ] in
      let d = Daemon.create (Daemon.config ~source:0 ~sink:1 ~patterns ()) in
      let rng = Prng.create ~seed:7 in
      for tick = 0 to 19 do
        let batch =
          List.init 100 (fun i ->
              let s = Prng.int rng n in
              let t = (s + 1 + Prng.int rng (n - 1)) mod n in
              entry s t (float_of_int ((tick * 100) + i)) (float_of_int (1 + Prng.int rng 9)))
        in
        ignore (Daemon.ingest d batch);
        ignore (Daemon.tick d);
        let kept = List.length (Obs.trace_events ()) in
        if kept > cap then Alcotest.failf "tick %d: %d spans kept, capacity %d" tick kept cap
      done;
      let recorded = List.length (Obs.trace_events ()) + Obs.dropped_events () in
      Alcotest.(check bool)
        (Printf.sprintf "several rings recorded (%d spans)" recorded)
        true
        (recorded > 3 * cap);
      Alcotest.(check bool) "overflow counted" true (Obs.dropped_events () > 0);
      Obs.reset ();
      Alcotest.(check int) "reset empties the ring" 0 (List.length (Obs.trace_events ()));
      Alcotest.(check int) "reset zeroes the count" 0 (Obs.dropped_events ()))

(* The lag gauge must read as absent — not stale — when the window is
   empty or nothing has ever arrived. *)
let test_ingest_lag_unset () =
  Obs.reset ();
  Obs.enable ();
  Fun.protect
    ~finally:(fun () ->
      Obs.disable ();
      Obs.reset ())
    (fun () ->
      (* A previous daemon in the same process left a value behind. *)
      Obs.Gauge.set (Obs.Gauge.make "serve.ingest_lag_seconds") 42.0;
      let d = Daemon.create (Daemon.config ~source:0 ~sink:2 ()) in
      Alcotest.(check bool) "empty daemon retracts stale lag" false
        (List.mem_assoc "serve.ingest_lag_seconds" (Obs.gauges ()));
      Alcotest.(check bool) "no scrape line while unset" false
        (contains (Obs.prometheus_text ()) "serve_ingest_lag_seconds");
      ignore (Daemon.ingest d [ entry 0 1 1.0 5.0 ]);
      (match List.assoc_opt "serve.ingest_lag_seconds" (Obs.gauges ()) with
      | Some v -> Alcotest.(check bool) "lag is a real value" true (v >= 0.0)
      | None -> Alcotest.fail "accepted traffic must publish a lag");
      Alcotest.(check bool) "scrape line once set" true
        (contains (Obs.prometheus_text ()) "serve_ingest_lag_seconds"))

let () =
  Alcotest.run "serve"
    [
      ( "request-parser",
        [
          Alcotest.test_case "single chunk" `Quick test_parser_single_chunk;
          Alcotest.test_case "terminator split at every byte" `Quick test_parser_every_split;
          Alcotest.test_case "byte at a time" `Quick test_parser_byte_at_a_time;
          Alcotest.test_case "body across chunks" `Quick test_parser_body_split;
          Alcotest.test_case "bare LF terminator" `Quick test_parser_bare_lf;
          Alcotest.test_case "head too large" `Quick test_parser_head_too_large;
          Alcotest.test_case "body too large" `Quick test_parser_body_too_large;
          Alcotest.test_case "malformed" `Quick test_parser_malformed;
        ] );
      ( "ingest",
        [
          Alcotest.test_case "parse line" `Quick test_ingest_parse_line;
          Alcotest.test_case "errors are specific" `Quick test_ingest_errors;
          Alcotest.test_case "blank lines skipped" `Quick test_ingest_body_blank_lines;
        ] );
      ( "daemon",
        [
          Check.seeded_property ~count:100 "windowed flow = batch greedy after every chunk"
            prop_daemon_flow_matches_batch;
          Alcotest.test_case "cross-batch timestamp tie" `Quick test_daemon_cross_batch_tie;
          Alcotest.test_case "late + self-loop rejection" `Quick
            test_daemon_rejects_late_and_self_loops;
          Alcotest.test_case "eviction (closed window)" `Quick test_daemon_eviction;
          Check.seeded_property ~count:30 "tables = precompute after every tick"
            prop_daemon_tables_match_precompute;
          Alcotest.test_case "alerts and cadence" `Quick test_daemon_alerts_and_cadence;
          Alcotest.test_case "min-flow threshold silences" `Quick test_daemon_min_flow_silences;
          Alcotest.test_case "base network seed" `Quick test_daemon_base_seed;
          Alcotest.test_case "capped alerts reproducible" `Quick
            test_daemon_capped_alerts_reproducible;
          Alcotest.test_case "rebuild allocates nothing per interaction" `Quick
            test_daemon_rebuild_allocation;
          Alcotest.test_case "validation" `Quick test_daemon_validation;
        ] );
      ( "http",
        [ Alcotest.test_case "ingest/status round trip" `Quick test_daemon_http_roundtrip ] );
      ( "observability",
        [
          Alcotest.test_case "traceparent echo" `Quick test_traceparent_echo;
          Alcotest.test_case "request latency histogram" `Quick test_http_latency_metric;
          Alcotest.test_case "lag gauge unset semantics" `Quick test_ingest_lag_unset;
          Alcotest.test_case "tick trace names the delta layer" `Quick test_tick_trace_spans;
          Alcotest.test_case "span store bounded under a soak" `Quick test_span_store_bounded;
        ] );
    ]
