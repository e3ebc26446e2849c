(* Anti-money-laundering investigation on a synthetic transaction
   network — the motivating application of the paper's introduction.

   A financial intelligence unit wants accounts that send money out
   and receive most of it back through intermediaries (round-trip
   flows), a classic layering signature.  This example:

   1. generates a Bitcoin-shaped transaction network;
   2. enumerates relaxed round-trip patterns (RP2/RP3, Section 5.3)
      using the precomputed cycle tables;
   3. ranks seed accounts by round-trip flow;
   4. extracts the top seed's full subgraph (Figure 10 style) and
      computes its exact maximum flow with the PreSim pipeline.

   Run with:  dune exec examples/aml_investigation.exe *)

module Spec = Tin_datasets.Spec
module Generator = Tin_datasets.Generator
module Extract = Tin_datasets.Extract
module Tables = Tin_patterns.Tables
module Pipeline = Tin_core.Pipeline
module Table = Tin_util.Table

let () =
  let spec = Spec.scaled ~factor:0.2 Spec.bitcoin in
  let net = Generator.generate ~seed:2024 spec in
  let stats = Generator.stats net in
  Printf.printf "Transaction network: %d accounts, %d transfer edges, %d transactions\n\n"
    stats.Generator.n_vertices stats.Generator.n_edges stats.Generator.n_interactions;

  (* Round-trip flows per account, from the precomputed cycle tables:
     this is exactly the paper's "relaxed pattern" aggregation. *)
  let l2 = Tables.cycles2 net and l3 = Tables.cycles3 net in
  Printf.printf "Precomputed %d two-hop and %d three-hop cycles\n\n" (Tables.n_rows l2)
    (Tables.n_rows l3);
  let roundtrip = Hashtbl.create 256 in
  let add t =
    for r = 0 to Tables.n_rows t - 1 do
      let a = Tables.vert t r 0 in
      let prev = Option.value ~default:0.0 (Hashtbl.find_opt roundtrip a) in
      Hashtbl.replace roundtrip a (prev +. Tables.flow t r)
    done
  in
  add l2;
  add l3;
  let ranked =
    Hashtbl.fold (fun a f acc -> (a, f) :: acc) roundtrip []
    |> List.sort (fun (_, f1) (_, f2) -> Float.compare f2 f1)
  in
  let top = List.filteri (fun i _ -> i < 10) ranked in
  Table.print ~title:"Top accounts by aggregated round-trip flow (<= 3 hops)"
    ~header:[ "Account"; "Round-trip flow (B)" ]
    (List.map
       (fun (a, f) -> [ string_of_int (Compact.label net a); Table.fmt_flow f ])
       top);

  (* Deep-dive on the top suspect: exact maximum flow through the
     merged cycle subgraph, with the seed split into source/sink. *)
  (* Deep-dive on the highest-ranked suspect whose cycle subgraph is
     small enough for exact analysis (hubs can exceed the cap, exactly
     like the paper's discarded >10K-interaction subgraphs). *)
  let analysable =
    List.find_map
      (fun (suspect, aggregated) ->
        match Extract.subgraph_of_seed net ~seed:suspect ~max_interactions:2000 with
        | Some p -> Some (p, aggregated)
        | None -> None)
      ranked
  in
  match analysable with
  | None -> print_endline "No analysable suspect found."
  | Some (p, aggregated) ->
          let r = Pipeline.report p.Extract.graph ~source:p.Extract.source ~sink:p.Extract.sink in
          Printf.printf
            "\nSuspect account %d: %d vertices, %d edges, %d transactions in its cycle subgraph\n"
            p.Extract.seed
            (Graph.n_vertices p.Extract.graph)
            (Graph.n_edges p.Extract.graph)
            p.Extract.n_interactions;
          Printf.printf "  difficulty: %s (LP variables %d -> %d after reduction)\n"
            (Pipeline.cls_name r.Pipeline.cls) r.Pipeline.lp_vars_before r.Pipeline.lp_vars_after;
          Printf.printf "  exact maximum round-trip flow: %sB\n" (Table.fmt_flow r.Pipeline.value);
          Printf.printf "  (aggregate of independent cycles was %sB)\n" (Table.fmt_flow aggregated);
          Printf.printf
            "  greedy flow for comparison:    %sB\n"
            (Table.fmt_flow
               (Tin_core.Greedy.flow p.Extract.graph ~source:p.Extract.source ~sink:p.Extract.sink));
          (* Provenance: the actual transaction routes that carry the
             maximum flow (flow decomposition over the time-expanded
             network) — what an investigator would subpoena. *)
          let _, routes =
            Tin_core.Decompose.max_flow_paths p.Extract.graph ~source:p.Extract.source
              ~sink:p.Extract.sink
          in
          let top_routes =
            List.sort
              (fun a b -> Float.compare b.Tin_core.Decompose.amount a.Tin_core.Decompose.amount)
              routes
            |> List.filteri (fun i _ -> i < 3)
          in
          Printf.printf "  heaviest carrying routes (%d total):\n" (List.length routes);
          List.iter
            (fun r ->
              let hops =
                List.map
                  (fun leg ->
                    Printf.sprintf "%d->%d@t=%.0f" leg.Tin_core.Decompose.src
                      leg.Tin_core.Decompose.dst leg.Tin_core.Decompose.time)
                  r.Tin_core.Decompose.legs
              in
              Printf.printf "    %sB via %s\n"
                (Table.fmt_flow r.Tin_core.Decompose.amount)
                (String.concat " , " hops))
            top_routes
