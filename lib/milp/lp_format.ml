(* LP format identifiers: letters, digits and a few symbols; must not start
   with a digit or '.'.  Model names may contain arbitrary characters, so we
   sanitize and, if needed, uniquify with the variable index. *)
let sanitize x name =
  let buf = Buffer.create (String.length name) in
  String.iter
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> Buffer.add_char buf c
      | _ -> Buffer.add_char buf '_')
    name;
  let s = Buffer.contents buf in
  let s = if s = "" || (s.[0] >= '0' && s.[0] <= '9') then "v" ^ s else s in
  Printf.sprintf "%s_%d" s x

let append_expr buf names e =
  let first = ref true in
  let term (x, a) =
    if a >= 0. then begin
      if not !first then Buffer.add_string buf " + "
    end
    else Buffer.add_string buf (if !first then "- " else " - ");
    first := false;
    let a = Float.abs a in
    if a = 1. then Buffer.add_string buf names.(x)
    else Buffer.add_string buf (Printf.sprintf "%.17g %s" a names.(x))
  in
  List.iter term (Lin_expr.terms e);
  if !first then Buffer.add_string buf "0"

let to_string m =
  let n = Model.var_count m in
  let names = Array.init n (fun x -> sanitize x (Model.name_of m x)) in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "Minimize\n obj: ";
  append_expr buf names (Model.objective m);
  Buffer.add_string buf "\nSubject To\n";
  let row_index = ref 0 in
  let emit_row row =
    incr row_index;
    let label =
      match row.Model.cname with
      | Some name -> sanitize !row_index name
      | None -> Printf.sprintf "c%d" !row_index
    in
    Buffer.add_string buf (Printf.sprintf " %s: " label);
    append_expr buf names row.Model.expr;
    let op =
      match row.Model.cmp with
      | Model.Le -> "<="
      | Model.Ge -> ">="
      | Model.Eq -> "="
    in
    Buffer.add_string buf (Printf.sprintf " %s %.17g\n" op row.Model.rhs)
  in
  Model.iter_constraints m emit_row;
  (* every variable is declared in Binary; only fixed ones need a bound *)
  Buffer.add_string buf "Bounds\n";
  for x = 0 to n - 1 do
    let lb = Model.lower_bound m x and ub = Model.upper_bound m x in
    if lb <> 0. || ub <> 1. then
      Buffer.add_string buf
        (Printf.sprintf " %.17g <= %s <= %.17g\n" lb names.(x) ub)
  done;
  if n > 0 then begin
    Buffer.add_string buf "Binary\n";
    for x = 0 to n - 1 do
      Buffer.add_string buf (Printf.sprintf " %s\n" names.(x))
    done
  end;
  Buffer.add_string buf "End\n";
  Buffer.contents buf

let write_file path m =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string m))
