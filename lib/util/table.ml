type align = Left | Right

(* Display width in UTF-8 code points: every byte but the 0x80-0xBF
   continuation bytes starts one ("µs" is 2 columns, 3 bytes). *)
let code_points s =
  String.fold_left (fun n c -> if Char.code c land 0xC0 = 0x80 then n else n + 1) 0 s

let pad align width s =
  let n = code_points s in
  if n >= width then s
  else
    let fill = String.make (width - n) ' ' in
    match align with Left -> s ^ fill | Right -> fill ^ s

let render ?title ?align ~header rows =
  let ncols =
    List.fold_left (fun acc r -> max acc (List.length r)) (List.length header) rows
  in
  let get l i = match List.nth_opt l i with Some s -> s | None -> "" in
  let aligns =
    match align with
    | Some a -> Array.init ncols (fun i -> match List.nth_opt a i with Some x -> x | None -> Right)
    | None -> Array.init ncols (fun i -> if i = 0 then Left else Right)
  in
  let widths = Array.make ncols 0 in
  let measure row =
    List.iteri (fun i s -> widths.(i) <- max widths.(i) (code_points s)) row
  in
  measure header;
  List.iter measure rows;
  let buf = Buffer.create 1024 in
  let rule () =
    Buffer.add_char buf '+';
    Array.iter
      (fun w ->
        Buffer.add_string buf (String.make (w + 2) '-');
        Buffer.add_char buf '+')
      widths;
    Buffer.add_char buf '\n'
  in
  let line row =
    Buffer.add_char buf '|';
    for i = 0 to ncols - 1 do
      Buffer.add_char buf ' ';
      Buffer.add_string buf (pad aligns.(i) widths.(i) (get row i));
      Buffer.add_string buf " |"
    done;
    Buffer.add_char buf '\n'
  in
  (match title with
  | Some t ->
      Buffer.add_string buf t;
      Buffer.add_char buf '\n'
  | None -> ());
  rule ();
  line header;
  rule ();
  List.iter line rows;
  rule ();
  Buffer.contents buf

let print ?title ?align ~header rows =
  print_string (render ?title ?align ~header rows)

let fmt_ms ms =
  if ms = 0.0 then "0"
  else if ms < 0.1 then Printf.sprintf "%.3g \xc2\xb5s" (ms *. 1000.0)
  else if ms < 10_000.0 then Printf.sprintf "%.4g ms" ms
  else Printf.sprintf "%.4g s" (ms /. 1000.0)

let with_suffix v =
  let abs = Float.abs v in
  if abs >= 1e12 then (v /. 1e12, "T")
  else if abs >= 1e9 then (v /. 1e9, "G")
  else if abs >= 1e6 then (v /. 1e6, "M")
  else if abs >= 1e3 then (v /. 1e3, "K")
  else (v, "")

let fmt_count v =
  let x, suffix = with_suffix v in
  if suffix = "" then Printf.sprintf "%.0f" x else Printf.sprintf "%.3g%s" x suffix

let fmt_flow v =
  if Float.is_integer v && Float.abs v < 1e6 then Printf.sprintf "%.0f" v
  else
    let x, suffix = with_suffix v in
    Printf.sprintf "%.4g%s" x suffix
