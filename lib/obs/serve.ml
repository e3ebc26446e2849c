module Timer = Tin_util.Timer

type meth = [ `GET | `POST ]

type response = { code : int; content_type : string; body : string }

type handler = body:string -> response

(* Per-route request latency, labeled by matched route and status
   code.  Unmatched paths share one "unmatched" label value so a
   scanner probing random URLs cannot mint unbounded time series. *)
let http_latency =
  Obs.Histogram.make_labeled "http_request_duration_ms" ~labels:[ "route"; "status" ]

type t = {
  sock : Unix.file_descr;
  bound_port : int;
  stopping : bool Atomic.t;
  domain : unit Domain.t;
  mutable stopped : bool;  (* driven only by the owning (stopping) caller *)
}

(* A process serving sockets must not die because a peer hung up:
   under the default disposition, [Unix.write] to a closed connection
   raises SIGPIPE and terminates the whole process before the
   [Unix_error (EPIPE, _, _)] the caller is prepared for can even be
   raised.  Ignore SIGPIPE once, process-wide, the first time a server
   starts — but never clobber a handler the embedding application
   installed itself ([Sys.signal] returns the previous disposition, so
   a custom handler is put straight back). *)
let ignore_sigpipe =
  lazy
    (match Sys.signal Sys.sigpipe Sys.Signal_ignore with
    | Sys.Signal_default | Sys.Signal_ignore -> ()
    | custom -> Sys.set_signal Sys.sigpipe custom
    | exception Invalid_argument _ -> ()
    | exception Sys_error _ -> ())

let http_status = function
  | 200 -> "200 OK"
  | 400 -> "400 Bad Request"
  | 404 -> "404 Not Found"
  | 405 -> "405 Method Not Allowed"
  | 408 -> "408 Request Timeout"
  | 413 -> "413 Payload Too Large"
  | _ -> "500 Internal Server Error"

let respond ?(extra_headers = []) fd ~code ~content_type body =
  let head =
    Printf.sprintf "HTTP/1.1 %s\r\nContent-Type: %s\r\nContent-Length: %d\r\nConnection: close\r\n%s\r\n"
      (http_status code) content_type (String.length body)
      (String.concat ""
         (List.map (fun (k, v) -> Printf.sprintf "%s: %s\r\n" k v) extra_headers))
  in
  let payload = Bytes.of_string (head ^ body) in
  let n = Bytes.length payload in
  let off = ref 0 in
  (try
     while !off < n do
       off := !off + Unix.write fd payload !off (n - !off)
     done
   with Unix.Unix_error _ -> (* peer went away mid-response; its problem *) ())

(* --- incremental request parsing ----------------------------------

   Pure and chunk-fed, so the boundary cases (a head terminator split
   across reads, an oversized body announced up front) are unit-
   testable without sockets.  The terminator scan resumes where the
   previous chunk left off — [max 0 (old_len - 3)], far enough back to
   see a terminator straddling the chunk boundary — instead of
   rescanning the whole accumulated head after every read (which made
   parsing O(n^2) in the head size). *)
module Request = struct
  type t = {
    meth : string;
    target : string;
    body : string;
    headers : (string * string) list;
  }

  type parser = {
    acc : Buffer.t;
    max_head : int;
    max_body : int;
    mutable scan : int;  (* resume offset of the head-terminator scan *)
    mutable head_end : int;  (* index just past the terminator; -1 while unseen *)
    mutable need : int;  (* declared body length, once the head is parsed *)
    mutable line : (string * string) option;  (* parsed request line *)
  }

  let parser ?(max_head = 8192) ?(max_body = 4 * 1024 * 1024) () =
    { acc = Buffer.create 256; max_head; max_body; scan = 0; head_end = -1; need = 0; line = None }

  (* First occurrence of CRLFCRLF (or bare LFLF, tolerating
     netcat-style smoke tests) at or after [from]; returns the index
     just past it. *)
  let find_terminator s from =
    let n = String.length s in
    let rec go i =
      if i >= n - 1 then None
      else if
        i + 3 < n && s.[i] = '\r' && s.[i + 1] = '\n' && s.[i + 2] = '\r' && s.[i + 3] = '\n'
      then Some (i + 4)
      else if s.[i] = '\n' && s.[i + 1] = '\n' then Some (i + 2)
      else go (i + 1)
    in
    go from

  let parse_request_line head =
    let first_line =
      match String.index_opt head '\n' with
      | Some i -> String.trim (String.sub head 0 i)
      | None -> String.trim head
    in
    match String.split_on_char ' ' first_line with
    | [ meth; target; _ ] | [ meth; target ] when meth <> "" && target <> "" ->
        Some (meth, target)
    | _ -> None

  (* Header field names are case-insensitive (RFC 9110): keys come out
     lowercased.  Continuation lines (obsolete folding) and lines
     without a colon are skipped rather than rejected — this parser
     only needs to be permissive enough for the headers the daemon
     reads ([content-length], [traceparent]). *)
  let parse_headers head =
    match String.index_opt head '\n' with
    | None -> []
    | Some first_eol ->
        String.sub head (first_eol + 1) (String.length head - first_eol - 1)
        |> String.split_on_char '\n'
        |> List.filter_map (fun line ->
               let line = String.trim line in
               match String.index_opt line ':' with
               | Some i when i > 0 ->
                   Some
                     ( String.lowercase_ascii (String.sub line 0 i),
                       String.trim (String.sub line (i + 1) (String.length line - i - 1)) )
               | _ -> None)

  let content_length head =
    let lower = String.lowercase_ascii head in
    let key = "content-length:" in
    String.split_on_char '\n' lower
    |> List.find_map (fun line ->
           let line = String.trim line in
           if String.starts_with ~prefix:key line then
             let v =
               String.trim (String.sub line (String.length key) (String.length line - String.length key))
             in
             Some (match int_of_string_opt v with Some n when n >= 0 -> `Length n | _ -> `Bad)
           else None)
    |> Option.value ~default:(`Length 0)

  let feed p chunk =
    Buffer.add_string p.acc chunk;
    let complete () =
      let s = Buffer.contents p.acc in
      match p.line with
      | None -> `Malformed (* unreachable: [line] is set when [head_end] is *)
      | Some (meth, target) ->
          `Done
            {
              meth;
              target;
              body = String.sub s p.head_end p.need;
              headers = parse_headers (String.sub s 0 p.head_end);
            }
    in
    if p.head_end >= 0 then
      if Buffer.length p.acc >= p.head_end + p.need then complete () else `More
    else begin
      let s = Buffer.contents p.acc in
      match find_terminator s p.scan with
      | None ->
          if Buffer.length p.acc > p.max_head then `Head_too_large
          else begin
            p.scan <- max 0 (String.length s - 3);
            `More
          end
      | Some head_end -> (
          p.head_end <- head_end;
          let head = String.sub s 0 head_end in
          match parse_request_line head with
          | None -> `Malformed
          | Some line -> (
              p.line <- Some line;
              match content_length head with
              | `Bad -> `Malformed
              | `Length n when n > p.max_body -> `Body_too_large
              | `Length n ->
                  p.need <- n;
                  if Buffer.length p.acc >= head_end + n then complete () else `More))
    end
end

(* Drain one request off the socket.  A timeout ([SO_RCVTIMEO] firing
   as [EAGAIN]/[EWOULDBLOCK]) and a clean close are distinguished from
   malformed input: an idle or vanished peer gets no response at all
   (writing a "400" to a possibly-dead socket is what the response
   path must never be forced into), while a peer that sent garbage is
   still told so. *)
let read_request ~max_body fd =
  let p = Request.parser ~max_body () in
  let buf = Bytes.create 1024 in
  let rec go () =
    match Unix.read fd buf 0 (Bytes.length buf) with
    | 0 -> `Closed
    | got -> (
        match Request.feed p (Bytes.sub_string buf 0 got) with
        | `More -> go ()
        | (`Done _ | `Head_too_large | `Body_too_large | `Malformed) as r -> r)
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | ETIMEDOUT | EINTR), _, _) -> `Timeout
    | exception Unix.Unix_error _ -> `Closed
  in
  go ()

let default_routes : (meth * string * handler) list =
  [
    ( `GET,
      "/metrics",
      fun ~body:_ ->
        {
          code = 200;
          content_type = "text/plain; version=0.0.4; charset=utf-8";
          body = Obs.prometheus_text ();
        } );
    ( `GET,
      "/metrics.json",
      fun ~body:_ ->
        { code = 200; content_type = "application/json"; body = Obs.metrics_json () ^ "\n" } );
    ( `GET,
      "/healthz",
      fun ~body:_ -> { code = 200; content_type = "text/plain; charset=utf-8"; body = "ok\n" }
    );
  ]

let text = "text/plain; charset=utf-8"

let handle ~read_timeout ~max_body ~routes fd =
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO read_timeout;
  Unix.setsockopt_float fd Unix.SO_SNDTIMEO read_timeout;
  (match read_request ~max_body fd with
  | `Timeout | `Closed -> () (* idle probe or vanished peer: nothing to answer *)
  | `Head_too_large | `Body_too_large -> respond fd ~code:413 ~content_type:text "too large\n"
  | `Malformed -> respond fd ~code:400 ~content_type:text "bad request\n"
  | `Done { Request.meth; target; body; headers } ->
      let t0 = if Atomic.get Obs.enabled then Timer.now_ns () else 0L in
      let meth = match meth with "GET" -> Some `GET | "POST" -> Some `POST | _ -> None in
      let path =
        match String.index_opt target '?' with
        | Some i -> String.sub target 0 i
        | None -> target
      in
      (* Each matched request runs under a root span: a client-sent
         traceparent stitches the request into the caller's trace, and
         the span opened here parents everything the handler records
         (ingest, tick, catalog searches).  The context is echoed back
         as a traceparent response header. *)
      let traceparent = List.assoc_opt "traceparent" headers in
      let tp_out = ref None in
      let resp, route_label =
        match meth with
        | None ->
            ({ code = 405; content_type = text; body = "GET and POST only\n" }, "unmatched")
        | Some m -> (
            match List.find_opt (fun (rm, rp, _) -> rm = m && rp = path) routes with
            | Some (_, _, h) ->
                let resp =
                  Obs.Span.with_root ?traceparent ("http." ^ path) (fun () ->
                      tp_out := Obs.Span.current_traceparent ();
                      try h ~body
                      with e ->
                        {
                          code = 500;
                          content_type = text;
                          body = "handler error: " ^ Printexc.to_string e ^ "\n";
                        })
                in
                (resp, path)
            | None ->
                if List.exists (fun (_, rp, _) -> rp = path) routes then
                  ({ code = 405; content_type = text; body = "method not allowed\n" }, "unmatched")
                else ({ code = 404; content_type = text; body = "not found\n" }, "unmatched"))
      in
      if Atomic.get Obs.enabled then begin
        let dt_ms = Int64.to_float (Int64.sub (Timer.now_ns ()) t0) /. 1e6 in
        Obs.Histogram.observe
          (Obs.Histogram.labeled http_latency [ route_label; string_of_int resp.code ])
          dt_ms
      end;
      (* A 5xx is an incident: snapshot the flight ring next to it
         (rate-limited inside), so "what was the daemon doing" is
         answerable even when nobody was tracing. *)
      if resp.code >= 500 then ignore (Obs.Flight.incident ~reason:"http_5xx" ());
      let extra_headers =
        match !tp_out with Some tp -> [ ("traceparent", tp) ] | None -> []
      in
      respond ~extra_headers fd ~code:resp.code ~content_type:resp.content_type resp.body);
  try Unix.close fd with Unix.Unix_error _ -> ()

(* Accept with a select timeout instead of blocking: closing a socket
   another domain is blocked in [accept] on does not reliably wake it,
   while a short poll loop observes the stop flag promptly. *)
let serve_loop ~read_timeout ~max_body ~routes sock stopping =
  let rec loop () =
    if not (Atomic.get stopping) then begin
      (match Unix.select [ sock ] [] [] 0.2 with
      | [ _ ], _, _ when not (Atomic.get stopping) -> (
          match Unix.accept ~cloexec:true sock with
          | client, _ -> handle ~read_timeout ~max_body ~routes client
          | exception Unix.Unix_error _ -> ())
      | _ -> ()
      | exception Unix.Unix_error _ -> ());
      loop ()
    end
  in
  loop ()

let start ?(addr = "0.0.0.0") ~port ?(read_timeout = 2.0) ?(max_body = 4 * 1024 * 1024)
    ?(routes = []) () =
  Lazy.force ignore_sigpipe;
  let sock = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try
     Unix.setsockopt sock Unix.SO_REUSEADDR true;
     Unix.bind sock (Unix.ADDR_INET (Unix.inet_addr_of_string addr, port));
     Unix.listen sock 16
   with e ->
     (try Unix.close sock with Unix.Unix_error _ -> ());
     raise e);
  let bound_port =
    match Unix.getsockname sock with Unix.ADDR_INET (_, p) -> p | Unix.ADDR_UNIX _ -> port
  in
  let stopping = Atomic.make false in
  let routes = routes @ default_routes in
  let domain =
    Domain.spawn (fun () -> serve_loop ~read_timeout ~max_body ~routes sock stopping)
  in
  { sock; bound_port; stopping; domain; stopped = false }

let port t = t.bound_port

let stop t =
  if not t.stopped then begin
    t.stopped <- true;
    Atomic.set t.stopping true;
    Domain.join t.domain;
    try Unix.close t.sock with Unix.Unix_error _ -> ()
  end
