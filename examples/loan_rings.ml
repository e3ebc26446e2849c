(* Loan-ring detection on a peer-to-peer lending network — the
   paper's Prosper Loans use case, exercising the full pattern
   toolkit (Section 5) through the public API.

   A "loan ring" is a set of users whose money travels in a short
   circle: a lends to b, b lends back (P2), possibly via a middleman
   (P3), or with side agreements (P4/P6, which need the LP because
   greedy forwarding is not optimal).  The example compares graph
   browsing against the precomputation-based search on all rigid
   patterns, then uses the relaxed patterns to rank users.

   Run with:  dune exec examples/loan_rings.exe *)

module Spec = Tin_datasets.Spec
module Generator = Tin_datasets.Generator
module Catalog = Tin_patterns.Catalog
module Tables = Tin_patterns.Tables
module Table = Tin_util.Table
module Timer = Tin_util.Timer

let () =
  let spec = Spec.scaled ~factor:0.4 Spec.prosper in
  let net = Generator.generate ~seed:77 spec in
  let stats = Generator.stats net in
  Printf.printf "Lending network: %d users, %d lender-borrower edges, %d loans (avg $%.2f)\n\n"
    stats.Generator.n_vertices stats.Generator.n_edges stats.Generator.n_interactions
    stats.Generator.avg_qty;

  (* Precompute the path tables once (chains included: the network is
     small, as the paper notes for Prosper). *)
  let tables, pre_ms = Timer.time_ms (fun () -> Catalog.precompute ~with_chains:true net) in
  Printf.printf "Precomputed path tables in %s\n\n" (Table.fmt_ms pre_ms);

  let rows =
    List.map
      (fun pattern ->
        let gb, gb_ms = Timer.time_ms (fun () -> Catalog.gb ~limit:50_000 net pattern) in
        let pb, pb_ms = Timer.time_ms (fun () -> Catalog.pb ~limit:50_000 net tables pattern) in
        assert (gb.Catalog.instances = pb.Catalog.instances);
        [
          Catalog.pattern_name pattern;
          string_of_int gb.Catalog.instances;
          "$" ^ Table.fmt_flow (Catalog.avg_flow gb);
          Table.fmt_ms gb_ms;
          Table.fmt_ms pb_ms;
        ])
      Catalog.all
  in
  Table.print ~title:"Loan-ring patterns: graph browsing vs precomputed tables"
    ~header:[ "Pattern"; "Rings"; "Avg flow"; "GB time"; "PB time" ]
    rows;
  print_newline ();

  (* Rank users by relaxed round-trip flow (RP2 + RP3 aggregation). *)
  let per_user = Hashtbl.create 128 in
  let tally table =
    for r = 0 to Tables.n_rows table - 1 do
      let a = Tables.vert table r 0 in
      let prev = Option.value ~default:0.0 (Hashtbl.find_opt per_user a) in
      Hashtbl.replace per_user a (prev +. Tables.flow table r)
    done
  in
  tally tables.Catalog.l2;
  tally tables.Catalog.l3;
  let ranked =
    Hashtbl.fold (fun a f acc -> (a, f) :: acc) per_user []
    |> List.sort (fun (_, f1) (_, f2) -> Float.compare f2 f1)
    |> List.filteri (fun i _ -> i < 5)
  in
  Table.print ~title:"Users with the largest round-trip loan flow"
    ~header:[ "User"; "Round-trip $" ]
    (List.map (fun (a, f) -> [ string_of_int (Compact.label net a); Table.fmt_flow f ]) ranked)
