type error = { file : string; line : int; column : int; message : string }

exception Parse_error of error

let error_to_string e =
  (* Binary-snapshot errors have no line/column structure; they carry
     [line = 0] and render without the GNU position suffix. *)
  if e.line = 0 then Printf.sprintf "%s: %s" e.file e.message
  else Printf.sprintf "%s:%d:%d: %s" e.file e.line e.column e.message

let src = Logs.Src.create "tin.graph.io" ~doc:"Interaction network I/O"

module Log = (val Logs.src_log src : Logs.LOG)

(* One CSV field: [text] as found, [column] the 1-based character
   offset of its first character in the line. *)
let split_fields line =
  let n = String.length line in
  let fields = ref [] in
  let start = ref 0 in
  for i = 0 to n do
    if i = n || line.[i] = ',' then begin
      fields := (String.sub line !start (i - !start), !start + 1) :: !fields;
      start := i + 1
    end
  done;
  List.rev !fields

(* Strict numeric field parsing: [int_of_string]/[float_of_string]
   accept OCaml literal syntax ("0x10", "1_000", "nan", "infinity");
   the on-disk format is plain decimal CSV, so NaN and infinities are
   data corruption, not numbers, and quantities/timestamps must be
   non-negative (Definition 1: interactions transfer non-negative
   quantities at real timestamps). *)
let field_error ~file ~line ~column message = Error { file; line; column; message }

let parse_vertex ~file ~line (text, column) what =
  let t = String.trim text in
  match int_of_string_opt t with
  | Some v -> Ok v
  | None -> field_error ~file ~line ~column ("malformed " ^ what ^ " (expected integer): " ^ t)

let parse_qty ~file ~line (text, column) what =
  let t = String.trim text in
  match float_of_string_opt t with
  | Some x when Float.is_nan x -> field_error ~file ~line ~column (what ^ " is NaN: " ^ t)
  | Some x when not (Float.is_finite x) ->
      field_error ~file ~line ~column (what ^ " is infinite: " ^ t)
  | Some x when x < 0.0 -> field_error ~file ~line ~column (what ^ " is negative: " ^ t)
  | Some x -> Ok x
  | None -> field_error ~file ~line ~column ("malformed " ^ what ^ " (expected number): " ^ t)

let ( let* ) = Result.bind

let parse_line ~file ~lineno line =
  match split_fields line with
  | [ a; b; t; q ] ->
      let* srcv = parse_vertex ~file ~line:lineno a "source vertex" in
      let* dstv = parse_vertex ~file ~line:lineno b "destination vertex" in
      let* time = parse_qty ~file ~line:lineno t "timestamp" in
      let* qty = parse_qty ~file ~line:lineno q "quantity" in
      Ok (srcv, dstv, Interaction.make ~time ~qty)
  | fields ->
      Error
        {
          file;
          line = lineno;
          column = 1;
          message = Printf.sprintf "expected 4 comma-separated fields, got %d" (List.length fields);
        }

let parse_channel ~file ic =
  let rec go lineno acc self_loops =
    match In_channel.input_line ic with
    | None ->
        if self_loops > 0 then Log.warn (fun m -> m "skipped %d self-loop interactions" self_loops);
        Ok (List.rev acc)
    | Some line ->
        let trimmed = String.trim line in
        if trimmed = "" || trimmed.[0] = '#' then go (lineno + 1) acc self_loops
        else if lineno = 1 && String.lowercase_ascii trimmed = "src,dst,time,qty" then
          go (lineno + 1) acc self_loops
        else begin
          match parse_line ~file ~lineno trimmed with
          | Ok (s, d, _) when s = d -> go (lineno + 1) acc (self_loops + 1)
          | Ok entry -> go (lineno + 1) (entry :: acc) self_loops
          | Error e -> Error e
        end
  in
  go 1 [] 0

(* --- loaders -------------------------------------------------------

   A file starting with the snapshot magic is a binary [.tinb]
   snapshot; anything else is parsed as CSV.  Either way the network
   lands in a [Compact.t]; snapshot failures carry [line = 0] (no
   textual position). *)

let whole_file_error path message = { file = path; line = 0; column = 0; message }

let load_compact_result path =
  if Snapshot.sniff path then Result.map_error (whole_file_error path) (Snapshot.load_result path)
  else
    In_channel.with_open_text path (fun ic ->
        Result.map Compact.of_entries (parse_channel ~file:path ic))

(* Only a snapshot can carry a self-loop: the CSV parser skips them. *)
let load_result path =
  match load_compact_result path with
  | Ok c when Compact.has_self_loops c ->
      Error (whole_file_error path "snapshot contains self-loop interactions")
  | r -> r

let raise_on_error = function Ok x -> x | Error e -> raise (Parse_error e)
let load path = raise_on_error (load_result path)
let load_compact path = raise_on_error (load_compact_result path)
let load_graph path = Compact.to_graph (load path)

let save_csv path g =
  Out_channel.with_open_text path (fun oc ->
      Out_channel.output_string oc "src,dst,time,qty\n";
      Graph.iter_edges
        (fun s d is ->
          List.iter
            (fun i ->
              Printf.fprintf oc "%d,%d,%.17g,%.17g\n" s d (Interaction.time i)
                (Interaction.qty i))
            is)
        g)

let to_dot ?(graph_name = "tin") ?source ?sink g =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Printf.sprintf "digraph %s {\n  rankdir=LR;\n" graph_name);
  List.iter
    (fun v ->
      let shape =
        if Some v = source then " [shape=doublecircle,style=filled,fillcolor=palegreen]"
        else if Some v = sink then " [shape=doublecircle,style=filled,fillcolor=lightblue]"
        else ""
      in
      Buffer.add_string buf (Printf.sprintf "  %d%s;\n" v shape))
    (Graph.vertices g);
  Graph.iter_edges
    (fun s d is ->
      let lbl = Format.asprintf "%a" Interaction.pp_list is in
      Buffer.add_string buf (Printf.sprintf "  %d -> %d [label=\"%s\"];\n" s d lbl))
    g;
  Buffer.add_string buf "}\n";
  Buffer.contents buf
