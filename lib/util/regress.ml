type status = Ok_within | Improved | Regressed | Drifted | Added | Removed

type row = {
  path : string;
  baseline : float option;
  current : float option;
  delta_pct : float option;
  status : status;
}

(* Array elements keyed by an identifying field so that reordering or
   extending a list (another dataset, another job count, another
   domain in an obs report) moves one path, not all of them. *)
let element_key (v : Json.t) =
  let field k =
    match Json.member k v with
    | Some (Json.Str s) -> Some s
    | Some (Json.Num f) -> Some (Printf.sprintf "%g" f)
    | _ -> None
  in
  List.find_map field [ "name"; "class"; "jobs"; "pattern"; "tid" ]

let flatten (doc : Json.t) =
  let out = ref [] in
  let join prefix k = if prefix = "" then k else prefix ^ "." ^ k in
  let rec go prefix (v : Json.t) =
    match v with
    | Json.Num f -> out := (prefix, f) :: !out
    | Json.Obj kvs -> List.iter (fun (k, v) -> go (join prefix k) v) kvs
    | Json.Arr vs ->
        List.iteri
          (fun i v ->
            let k = match element_key v with Some k -> k | None -> string_of_int i in
            go (join prefix k) v)
          vs
    | Json.Null | Json.Bool _ | Json.Str _ -> ()
  in
  go "" doc;
  List.rev !out

(* Facts of the machine or of the schedule, not of the code under
   test: the host's domain count, a domain's identity, and how an obs
   report's deterministic span total ([trace.spans]) splits across
   domains. *)
let ignored path =
  match List.rev (String.split_on_char '.' path) with
  | ("domains_available" | "tid") :: _ | [ "spans"; _; "domains" ] -> true
  | _ -> false

type direction = Lower_better | Higher_better | Exact

let direction path =
  let has needle =
    let n = String.length needle and h = String.length path in
    let rec go i = i + n <= h && (String.sub path i n = needle || go (i + 1)) in
    go 0
  in
  if has "_ms" || has "_secs" || has "wall" || has "rss" || has "imbalance" then Lower_better
  else if has "_per_s" || has "speedup" || has "utilization" then Higher_better
  else Exact

let judge ~tolerance_pct path base cur =
  let denom = Float.max (Float.abs base) 1e-12 in
  let delta = (cur -. base) /. denom in
  let beyond = Float.abs delta > tolerance_pct /. 100.0 in
  let status =
    match direction path with
    | Exact -> if Float.equal base cur then Ok_within else Drifted
    | _ when not beyond -> Ok_within
    | Lower_better -> if delta > 0.0 then Regressed else Improved
    | Higher_better -> if delta < 0.0 then Regressed else Improved
  in
  (100.0 *. delta, status)

let compare_docs ?(tolerance_pct = 15.0) ~baseline ~current () =
  let b = flatten baseline and c = flatten current in
  let c_tbl = Hashtbl.create 64 in
  List.iter (fun (p, v) -> Hashtbl.replace c_tbl p v) c;
  let b_paths = Hashtbl.create 64 in
  List.iter (fun (p, _) -> Hashtbl.replace b_paths p ()) b;
  let shared_and_removed =
    List.filter_map
      (fun (path, bv) ->
        if ignored path then None
        else
          match Hashtbl.find_opt c_tbl path with
          | Some cv ->
              let delta_pct, status = judge ~tolerance_pct path bv cv in
              Some
                {
                  path;
                  baseline = Some bv;
                  current = Some cv;
                  delta_pct = Some delta_pct;
                  status;
                }
          | None ->
              let status = if direction path = Exact then Drifted else Removed in
              Some { path; baseline = Some bv; current = None; delta_pct = None; status })
      b
  in
  let added =
    List.filter_map
      (fun (path, cv) ->
        if ignored path || Hashtbl.mem b_paths path then None
        else Some { path; baseline = None; current = Some cv; delta_pct = None; status = Added })
      c
  in
  shared_and_removed @ added

let header_mismatch ~baseline ~current =
  let show = function Some s -> Printf.sprintf "%S" s | None -> "absent" in
  List.find_map
    (fun k ->
      let get doc = Option.bind (Json.member k doc) Json.str in
      let b = get baseline and c = get current in
      if b = c then None
      else Some (Printf.sprintf "%s differs: baseline %s, current %s" k (show b) (show c)))
    [ "benchmark"; "scale" ]

let regressed rows = List.filter (fun r -> r.status = Regressed) rows
let drifted rows = List.filter (fun r -> r.status = Drifted) rows

let status_name = function
  | Ok_within -> "ok"
  | Improved -> "improved"
  | Regressed -> "REGRESSED"
  | Drifted -> "DRIFTED"
  | Added -> "new"
  | Removed -> "missing"

let render_table ?title rows =
  let fmt_opt = function None -> "-" | Some v -> Printf.sprintf "%g" v in
  let fmt_delta = function None -> "-" | Some d -> Printf.sprintf "%+.1f%%" d in
  let deviating = List.filter (fun r -> r.status <> Ok_within) rows in
  let n_ok = List.length rows - List.length deviating in
  let body =
    List.map
      (fun r ->
        [ r.path; fmt_opt r.baseline; fmt_opt r.current; fmt_delta r.delta_pct; status_name r.status ])
      deviating
  in
  let table =
    if body = [] then
      (match title with None -> "" | Some t -> t ^ "\n") ^ "all metrics within tolerance\n"
    else Table.render ?title ~header:[ "metric"; "baseline"; "current"; "delta"; "status" ] body
  in
  table
  ^ Printf.sprintf
      "%d metric(s) compared: %d within tolerance, %d drifted, %d regressed, %d improved, %d new, \
       %d missing\n"
      (List.length rows) n_ok
      (List.length (drifted rows))
      (List.length (regressed rows))
      (List.length (List.filter (fun r -> r.status = Improved) rows))
      (List.length (List.filter (fun r -> r.status = Added) rows))
      (List.length (List.filter (fun r -> r.status = Removed) rows))
