type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Error of string

let parse_exn (s : string) : t =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let fail msg = raise (Error (Printf.sprintf "%s at byte %d" msg !pos)) in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\n' | '\t' | '\r') ->
        incr pos;
        skip_ws ()
    | _ -> ()
  in
  let expect c =
    if !pos < n && s.[!pos] = c then incr pos else fail (Printf.sprintf "expected '%c'" c)
  in
  let literal lit v =
    let k = String.length lit in
    if !pos + k <= n && String.sub s !pos k = lit then begin
      pos := !pos + k;
      v
    end
    else fail ("expected " ^ lit)
  in
  let hex c =
    match c with
    | '0' .. '9' -> Char.code c - Char.code '0'
    | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
    | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
    | _ -> fail "bad hex digit"
  in
  (* Decode \uXXXX to UTF-8 bytes; surrogate pairs are out of scope
     (the writers in this repo never emit them). *)
  let add_code_point b cp =
    if cp >= 0xD800 && cp <= 0xDFFF then fail "surrogate escapes unsupported"
    else if cp < 0x80 then Buffer.add_char b (Char.chr cp)
    else if cp < 0x800 then begin
      Buffer.add_char b (Char.chr (0xC0 lor (cp lsr 6)));
      Buffer.add_char b (Char.chr (0x80 lor (cp land 0x3F)))
    end
    else begin
      Buffer.add_char b (Char.chr (0xE0 lor (cp lsr 12)));
      Buffer.add_char b (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
      Buffer.add_char b (Char.chr (0x80 lor (cp land 0x3F)))
    end
  in
  let string_lit () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      match s.[!pos] with
      | '"' -> incr pos
      | '\\' ->
          incr pos;
          if !pos >= n then fail "bad escape";
          (match s.[!pos] with
          | '"' -> Buffer.add_char b '"'
          | '\\' -> Buffer.add_char b '\\'
          | '/' -> Buffer.add_char b '/'
          | 'n' -> Buffer.add_char b '\n'
          | 't' -> Buffer.add_char b '\t'
          | 'r' -> Buffer.add_char b '\r'
          | 'b' -> Buffer.add_char b '\b'
          | 'f' -> Buffer.add_char b '\012'
          | 'u' ->
              if !pos + 4 >= n then fail "bad unicode escape";
              let cp =
                (hex s.[!pos + 1] lsl 12)
                lor (hex s.[!pos + 2] lsl 8)
                lor (hex s.[!pos + 3] lsl 4)
                lor hex s.[!pos + 4]
              in
              add_code_point b cp;
              pos := !pos + 4
          | _ -> fail "bad escape");
          incr pos;
          go ()
      | c when Char.code c < 0x20 -> fail "raw control character in string"
      | c ->
          Buffer.add_char b c;
          incr pos;
          go ()
    in
    go ();
    Buffer.contents b
  in
  let number () =
    let start = !pos in
    let is_num c =
      (c >= '0' && c <= '9') || c = '-' || c = '+' || c = '.' || c = 'e' || c = 'E'
    in
    while !pos < n && is_num s.[!pos] do
      incr pos
    done;
    if !pos = start then fail "expected a value";
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> f
    | None -> fail "malformed number"
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | Some '{' ->
        incr pos;
        skip_ws ();
        if peek () = Some '}' then begin
          incr pos;
          Obj []
        end
        else
          let rec fields acc =
            skip_ws ();
            let k = string_lit () in
            skip_ws ();
            expect ':';
            let v = value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                incr pos;
                fields ((k, v) :: acc)
            | Some '}' ->
                incr pos;
                List.rev ((k, v) :: acc)
            | _ -> fail "expected ',' or '}'"
          in
          Obj (fields [])
    | Some '[' ->
        incr pos;
        skip_ws ();
        if peek () = Some ']' then begin
          incr pos;
          Arr []
        end
        else
          let rec elems acc =
            let v = value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                incr pos;
                elems (v :: acc)
            | Some ']' ->
                incr pos;
                List.rev (v :: acc)
            | _ -> fail "expected ',' or ']'"
          in
          Arr (elems [])
    | Some '"' -> Str (string_lit ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some _ -> Num (number ())
    | None -> fail "unexpected end of input"
  in
  let v = value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

let parse_exn s = try parse_exn s with Error msg -> failwith ("Json.parse: " ^ msg)

let parse s = try Ok (parse_exn s) with Failure msg -> Error msg

let escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | '\r' -> Buffer.add_string b "\\r"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let int n = Num (float_of_int n)

(* The shortest of %.15g, %.16g and %.17g that reads back as the same
   float; %.17g always does. *)
let number f =
  let rec shortest p =
    let s = Printf.sprintf "%.*g" p f in
    if p = 17 || Float.equal (float_of_string s) f then s else shortest (p + 1)
  in
  if Float.is_finite f then shortest 15 else "null"

type layout = Compact | Indented

let to_string layout v =
  let b = Buffer.create 1024 in
  let add = Buffer.add_string b in
  let quote s = add ("\"" ^ escape s ^ "\"") in
  let colon, comma = if layout = Compact then (":", ",") else (": ", ", ") in
  let scalar = function Arr _ | Obj _ -> false | _ -> true in
  let rec value indent = function
    | Null -> add "null"
    | Bool x -> add (string_of_bool x)
    | Num f -> add (number f)
    | Str s -> quote s
    | Arr vs -> members indent "[" "]" (List.map (fun v -> (None, v)) vs)
    | Obj kvs -> members indent "{" "}" (List.map (fun (k, v) -> (Some k, v)) kvs)
  and members indent op cl ms =
    (* [None]: all on one line; [Some inner]: one member per line. *)
    let inner =
      if layout = Compact || List.for_all (fun (_, v) -> scalar v) ms then None
      else Some (indent ^ "  ")
    in
    add op;
    List.iteri
      (fun i (k, v) ->
        (match inner with
        | None -> if i > 0 then add comma
        | Some ind -> add ((if i > 0 then ",\n" else "\n") ^ ind));
        Option.iter (fun k -> quote k; add colon) k;
        value (Option.value inner ~default:indent) v)
      ms;
    if inner <> None then add ("\n" ^ indent);
    add cl
  in
  value "" v;
  if layout = Indented then add "\n";
  Buffer.contents b

let member k = function Obj kvs -> List.assoc_opt k kvs | _ -> None
let str = function Str s -> Some s | _ -> None
let num = function Num f -> Some f | _ -> None
