(* Capacity planning with bounded vertex buffers — an extension the
   paper leaves open (it assumes "we do not set a bound on how much a
   node can buffer"; real routers and accounts do have limits).

   The time-expanded reduction of Section 4.2.1 supports buffer
   bounds for free: the holdover arcs that model buffering get the
   vertex's capacity instead of infinity.  This example sweeps the
   buffer size of the intermediate hosts of a traffic sub-network and
   shows the achievable source→sink throughput at each size — the
   "how much memory do relays need before the network itself is the
   bottleneck" question.

   It also demonstrates streaming greedy monitoring: interactions are
   pushed one at a time into the greedy scan kernel, as a live stream
   would deliver them, and the running flow is inspected.

   Run with:  dune exec examples/router_capacity.exe *)

module Spec = Tin_datasets.Spec
module Generator = Tin_datasets.Generator
module Extract = Tin_datasets.Extract
module TE = Tin_maxflow.Time_expand
module Kernel = Tin_core.Greedy.Kernel
module Table = Tin_util.Table

let () =
  let spec = Spec.scaled ~factor:0.3 Spec.ctu13 in
  let net = Generator.generate ~seed:4242 spec in
  (* Take the largest extracted relay sub-network. *)
  let problems = Extract.extract ~max_interactions:1500 net in
  match
    List.sort
      (fun (a : Extract.problem) b -> compare b.Extract.n_interactions a.Extract.n_interactions)
      problems
  with
  | [] -> print_endline "no relay sub-network found"
  | p :: _ ->
      Printf.printf "Relay sub-network around host %d: %d hosts, %d transfers\n\n" p.Extract.seed
        (Graph.n_vertices p.Extract.graph)
        p.Extract.n_interactions;
      let unbounded =
        TE.max_flow p.Extract.graph ~source:p.Extract.source ~sink:p.Extract.sink
      in
      let rows =
        List.map
          (fun cap ->
            let throughput =
              TE.max_flow
                ~buffer_capacity:(fun _ -> cap)
                p.Extract.graph ~source:p.Extract.source ~sink:p.Extract.sink
            in
            [
              Table.fmt_flow cap;
              Table.fmt_flow throughput;
              Printf.sprintf "%.0f%%" (100.0 *. throughput /. Float.max 1e-9 unbounded);
            ])
          [ 0.0; 100.0; 1_000.0; 10_000.0; 100_000.0; 1_000_000.0 ]
      in
      Table.print
        ~title:"Throughput vs per-host buffer capacity (bytes)"
        ~header:[ "Buffer capacity"; "Max throughput"; "% of unbounded" ]
        (rows @ [ [ "unbounded"; Table.fmt_flow unbounded; "100%" ] ]);
      print_newline ();
      (* Live monitoring: replay the history as a stream and report
         the running flow at quartiles. *)
      let interactions = Graph.interactions_sorted p.Extract.graph in
      let monitor = Kernel.create ~source:p.Extract.source ~sink:p.Extract.sink in
      let n = Array.length interactions in
      Printf.printf "Streaming replay (greedy scan kernel):\n";
      Array.iteri
        (fun k (src, dst, i) ->
          ignore (Kernel.push monitor ~src ~dst i);
          if (k + 1) mod (max 1 (n / 4)) = 0 || k = n - 1 then
            Printf.printf "  after %4d/%d transfers: greedy flow so far = %s\n" (k + 1) n
              (Table.fmt_flow (Kernel.flow monitor)))
        interactions
