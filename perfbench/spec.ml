(* BENCHMARK.json: reading, validating and writing the benchmark's
   declaration, and printing the one-line result the benchmark ends
   with. The declaration is the single source of metric names and
   units: the benchmark reports exactly the metrics it lists. *)

type metric = {
  name : string;
  unit_ : string;
  better : string;
  bound : float option;  (** end-to-end metrics only *)
}

type workload = { wname : string; why : string }

type t = {
  command : string list;
  paths : string list;
  run_seconds : int;
  workloads : workload list;
  end_to_end : metric list;
  per_layer : metric list;
}

exception Invalid of string

let fail fmt = Printf.ksprintf (fun s -> raise (Invalid s)) fmt

(* ---- reading ---- *)

let field k j =
  match Obs.Json.member k j with Some v -> v | None -> fail "missing key %S" k

let keys_exactly ks j =
  match j with
  | Obs.Json.Obj members ->
      let got = List.sort compare (List.map fst members) in
      if got <> List.sort compare ks then
        fail "keys %s, expected %s" (String.concat "," got)
          (String.concat "," ks)
  | _ -> fail "expected an object"

let str j =
  match Obs.Json.str j with Some s -> s | None -> fail "expected a string"

let num j =
  match Obs.Json.num j with Some x -> x | None -> fail "expected a number"

let list f = function Obs.Json.Arr l -> List.map f l | _ -> fail "expected an array"

let metric ~bounded j =
  let ks = [ "name"; "unit"; "better" ] in
  keys_exactly (if bounded then ks @ [ "bound" ] else ks) j;
  {
    name = str (field "name" j);
    unit_ = str (field "unit" j);
    better = str (field "better" j);
    bound = (if bounded then Some (num (field "bound" j)) else None);
  }

let of_string s =
  let j =
    try Obs.Json.parse s with Obs.Json.Error e -> fail "malformed JSON: %s" e
  in
  keys_exactly
    [ "command"; "paths"; "run_seconds"; "workloads"; "end_to_end"; "per_layer" ]
    j;
  let run_seconds = num (field "run_seconds" j) in
  if not (Float.is_integer run_seconds) then fail "run_seconds is not whole";
  {
    command = list str (field "command" j);
    paths = list str (field "paths" j);
    run_seconds = int_of_float run_seconds;
    workloads =
      list
        (fun w ->
          keys_exactly [ "name"; "why" ] w;
          { wname = str (field "name" w); why = str (field "why" w) })
        (field "workloads" j);
    end_to_end = list (metric ~bounded:true) (field "end_to_end" j);
    per_layer = list (metric ~bounded:false) (field "per_layer" j);
  }

let read path =
  let ic = open_in_bin path in
  let s =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  of_string s

(* ---- validating: the limits a declaration must keep ---- *)

let all_chars ok s = String.for_all ok s

let is_alnum c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')

let valid_name s =
  String.length s >= 1
  && String.length s <= 64
  && is_alnum s.[0]
  && all_chars (fun c -> is_alnum c || c = '_' || c = '.' || c = '-') s

let valid_unit s =
  String.length s >= 1
  && String.length s <= 16
  && all_chars (fun c -> is_alnum c || String.contains "_/%.-" c) s

let valid_path s =
  String.length s >= 1
  && String.length s <= 200
  && s.[0] <> '/'
  && all_chars (fun c -> is_alnum c || String.contains "_.-/" c) s
  && not (List.mem ".." (String.split_on_char '/' s))

let validate t =
  let n = List.length in
  let between lo hi l what =
    if n l < lo || n l > hi then fail "%s: %d entries, want %d..%d" what (n l) lo hi
  in
  between 1 32 t.command "command";
  List.iter
    (fun a ->
      if String.length a > 200 || (String.length a > 0 && a.[0] = '/') then
        fail "command argument %S" a)
    t.command;
  between 1 16 t.paths "paths";
  List.iter (fun p -> if not (valid_path p) then fail "path %S" p) t.paths;
  if t.run_seconds < 1 || t.run_seconds > 60 then
    fail "run_seconds %d outside 1..60" t.run_seconds;
  between 2 8 t.workloads "workloads";
  List.iter
    (fun w ->
      if not (valid_name w.wname) then fail "workload name %S" w.wname;
      if String.length w.why > 200 || String.contains w.why '\n' then
        fail "workload %s: why must be one line of at most 200 characters" w.wname)
    t.workloads;
  between 1 16 t.end_to_end "end_to_end";
  between 1 128 t.per_layer "per_layer";
  List.iter
    (fun m ->
      if not (valid_name m.name) then fail "metric name %S" m.name;
      if not (valid_unit m.unit_) then fail "metric %s: unit %S" m.name m.unit_;
      if m.better <> "lower" && m.better <> "higher" then
        fail "metric %s: better %S" m.name m.better;
      match m.bound with
      | Some b when b <= 0.0 || b > 0.25 -> fail "metric %s: bound %g" m.name b
      | _ -> ())
    (t.end_to_end @ t.per_layer);
  let names =
    List.map (fun w -> w.wname) t.workloads
    @ List.map (fun m -> m.name) (t.end_to_end @ t.per_layer)
  in
  if List.length (List.sort_uniq compare names) <> List.length names then
    fail "a name is used twice";
  match List.find_opt (fun m -> m.name = "setup_s") t.end_to_end with
  | Some { unit_ = "s"; better = "lower"; bound = Some b; _ } ->
      if List.exists (fun m -> m.bound > Some b) t.end_to_end then
        fail "setup_s must have the largest bound"
  | _ -> fail "end_to_end needs setup_s in s, lower is better"

(* ---- writing ---- *)

let escape s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let strings l = "[" ^ String.concat ", " (List.map escape l) ^ "]"

let rows l = "[\n" ^ String.concat ",\n" (List.map (fun r -> "    " ^ r) l) ^ "\n  ]"

let metric_row m =
  Printf.sprintf "{\"name\": %s, \"unit\": %s, \"better\": %s%s}" (escape m.name)
    (escape m.unit_) (escape m.better)
    (match m.bound with Some b -> Printf.sprintf ", \"bound\": %g" b | None -> "")

let to_string t =
  String.concat ""
    [
      "{\n";
      Printf.sprintf "  \"command\": %s,\n" (strings t.command);
      Printf.sprintf "  \"paths\": %s,\n" (strings t.paths);
      Printf.sprintf "  \"run_seconds\": %d,\n" t.run_seconds;
      Printf.sprintf "  \"workloads\": %s,\n"
        (rows
           (List.map
              (fun w ->
                Printf.sprintf "{\"name\": %s, \"why\": %s}" (escape w.wname)
                  (escape w.why))
              t.workloads));
      Printf.sprintf "  \"end_to_end\": %s,\n" (rows (List.map metric_row t.end_to_end));
      Printf.sprintf "  \"per_layer\": %s\n" (rows (List.map metric_row t.per_layer));
      "}\n";
    ]

(* ---- the result line ---- *)

(* All digits: results are compared as raw measurements. JSON has no
   non-finite numbers, so a NaN or infinity is a caller bug. *)
let number x =
  if not (Float.is_finite x) then invalid_arg "Spec.number: not finite";
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else Printf.sprintf "%.17g" x

(* [values] must hold exactly the metrics in [metrics], in any order. *)
let result_line ~correct ~attempted ~failed metrics values =
  let missing = List.filter (fun m -> not (List.mem_assoc m.name values)) metrics in
  let extra =
    List.filter (fun (k, _) -> not (List.exists (fun m -> m.name = k) metrics)) values
  in
  (match (missing, extra) with
  | [], [] -> ()
  | m :: _, _ -> invalid_arg ("Spec.result_line: no value for " ^ m.name)
  | _, (k, _) :: _ -> invalid_arg ("Spec.result_line: undeclared metric " ^ k));
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed
    (String.concat ", "
       (List.map
          (fun m ->
            Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (escape m.name)
              (number (List.assoc m.name values))
              (escape m.unit_))
          metrics))
