type var = int

type cmp = Le | Ge | Eq

type row = {
  cname : string option;
  expr : Lin_expr.t;
  cmp : cmp;
  rhs : float;
}

type var_info = {
  vname : string option;
  mutable lb : float;
  mutable ub : float;
}

type t = {
  mutable vars : var_info array;  (* grow-by-doubling *)
  mutable nvars : int;
  mutable rows_rev : row list;
  mutable nrows : int;
  mutable obj : Lin_expr.t;
}

let create () =
  { vars = [||]; nvars = 0; rows_rev = []; nrows = 0; obj = Lin_expr.zero }

let grow m =
  let cap = Array.length m.vars in
  if m.nvars = cap then begin
    let dummy = { vname = None; lb = 0.; ub = 1. } in
    let vars = Array.make (max 8 (2 * cap)) dummy in
    Array.blit m.vars 0 vars 0 cap;
    m.vars <- vars
  end

let bool_var ?name m =
  grow m;
  m.vars.(m.nvars) <- { vname = name; lb = 0.; ub = 1. };
  m.nvars <- m.nvars + 1;
  m.nvars - 1

let bool_vars ?prefix m n =
  let make i =
    let name = Option.map (fun p -> Printf.sprintf "%s%d" p i) prefix in
    bool_var ?name m
  in
  Array.init n make

let var_count m = m.nvars

let check_var m x =
  if x < 0 || x >= m.nvars then invalid_arg "Model: variable out of range"

let info m x = check_var m x; m.vars.(x)

let name_of m x =
  match (info m x).vname with
  | Some n -> n
  | None -> Printf.sprintf "x%d" x

let lower_bound m x = (info m x).lb
let upper_bound m x = (info m x).ub

let fix m x value =
  let vi = info m x in
  if value < vi.lb -. 1e-9 || value > vi.ub +. 1e-9 then
    invalid_arg "Model.fix: value outside bounds";
  if Float.abs (value -. Float.round value) > 1e-9 then
    invalid_arg "Model.fix: non-integral value";
  vi.lb <- value;
  vi.ub <- value

let add_constraint ?name m expr cmp rhs =
  let expr, rhs =
    (* fold the expression's constant into the rhs for a canonical row *)
    let c = Lin_expr.constant expr in
    if c = 0. then (expr, rhs)
    else (Lin_expr.add expr (Lin_expr.const (-.c)), rhs -. c)
  in
  m.rows_rev <- { cname = name; expr; cmp; rhs } :: m.rows_rev;
  m.nrows <- m.nrows + 1

let add_boolean_clause ?name m ~pos ~neg =
  List.iter (check_var m) pos;
  List.iter (check_var m) neg;
  let expr =
    Lin_expr.sum
      (List.map (fun x -> Lin_expr.var x) pos
      @ List.map Lin_expr.complement neg)
  in
  add_constraint ?name m expr Ge 1.

let constraint_count m = m.nrows
let constraints m = List.rev m.rows_rev
let iter_constraints m f = List.iter f (constraints m)

let set_objective m expr = m.obj <- expr
let objective m = m.obj

let objective_value m value = Lin_expr.eval m.obj value

let row_violation row value =
  let lhs = Lin_expr.eval row.expr value in
  match row.cmp with
  | Le -> lhs -. row.rhs
  | Ge -> row.rhs -. lhs
  | Eq -> Float.abs (lhs -. row.rhs)

let row_scale row =
  List.fold_left (fun acc (_, a) -> Float.max acc (Float.abs a))
    (Float.max 1. (Float.abs row.rhs))
    (Lin_expr.terms row.expr)

let violated_constraints ?(tol = 1e-6) m value =
  let bad row = row_violation row value > tol *. row_scale row in
  List.filter bad (constraints m)

let is_feasible ?(tol = 1e-6) m value =
  let bounds_ok x =
    let vi = m.vars.(x) in
    let v = value x in
    v >= vi.lb -. tol && v <= vi.ub +. tol
    && Float.abs (v -. Float.round v) <= tol
  in
  let rec all_bounds i = i >= m.nvars || (bounds_ok i && all_bounds (i + 1)) in
  all_bounds 0 && violated_constraints ~tol m value = []

let copy m =
  { vars = Array.map (fun vi -> { vi with vname = vi.vname }) m.vars;
    nvars = m.nvars;
    rows_rev = m.rows_rev;
    nrows = m.nrows;
    obj = m.obj }

(* --- JSON serialization ------------------------------------------------

   The wire format of optimality certificates (Archex_cert): a model is
   re-checkable offline only if the certificate carries it, so the
   encoding round-trips everything semantic — (possibly narrowed) bounds,
   row order, names.  Every variable carries ["kind": "bool"], the one
   kind there is, so that certificate files keep their layout. *)

module Json = Archex_obs.Json

let cmp_name = function Le -> "le" | Ge -> "ge" | Eq -> "eq"

let expr_fields e =
  [ ("const", Json.Num (Lin_expr.constant e));
    ("terms",
     Json.Arr
       (List.map
          (fun (x, a) -> Json.Arr [ Json.Num (float_of_int x); Json.Num a ])
          (Lin_expr.terms e))) ]

let to_json m =
  let var_json i =
    let vi = m.vars.(i) in
    Json.Obj
      ((match vi.vname with Some n -> [ ("name", Json.Str n) ] | None -> [])
      @ [ ("kind", Json.Str "bool");
          ("lb", Json.Num vi.lb);
          ("ub", Json.Num vi.ub) ])
  in
  let row_json r =
    Json.Obj
      ((match r.cname with Some n -> [ ("name", Json.Str n) ] | None -> [])
      @ [ ("cmp", Json.Str (cmp_name r.cmp)); ("rhs", Json.Num r.rhs) ]
      @ expr_fields r.expr)
  in
  Json.Obj
    [ ("vars", Json.Arr (List.init m.nvars var_json));
      ("objective", Json.Obj (expr_fields m.obj));
      ("rows", Json.Arr (List.map row_json (constraints m))) ]

let of_json j =
  let ( let* ) = Result.bind in
  let err fmt = Printf.ksprintf (fun s -> Error s) fmt in
  let field name o =
    match Json.mem name o with
    | Some v -> Ok v
    | None -> err "model JSON: missing %S" name
  in
  let num ctx = function
    | Json.Num v -> Ok v
    | v -> err "model JSON: %s must be a number, got %s" ctx (Json.to_string v)
  in
  let arr ctx = function
    | Json.Arr l -> Ok l
    | v -> err "model JSON: %s must be an array, got %s" ctx (Json.to_string v)
  in
  let rec map_result f = function
    | [] -> Ok []
    | x :: tl ->
        let* y = f x in
        let* ys = map_result f tl in
        Ok (y :: ys)
  in
  let int_of ctx v =
    let* x = num ctx v in
    if Float.is_integer x then Ok (int_of_float x)
    else err "model JSON: %s must be an integer, got %g" ctx x
  in
  let term nvars = function
    | Json.Arr [ x; a ] ->
        let* xi = int_of "term variable" x in
        let* a = num "term coefficient" a in
        if xi < 0 || xi >= nvars then
          err "model JSON: variable index %d out of range (%d vars)" xi nvars
        else Ok (xi, a)
    | v -> err "model JSON: bad term %s" (Json.to_string v)
  in
  let expr nvars ctx o =
    let* c =
      match Json.mem "const" o with
      | None -> Ok 0.
      | Some v -> num (ctx ^ " const") v
    in
    let* ts = field "terms" o in
    let* ts = arr (ctx ^ " terms") ts in
    let* ts = map_result (term nvars) ts in
    Ok (Lin_expr.of_terms ~constant:c ts)
  in
  let m = create () in
  let add_parsed_var o =
    let* kind = field "kind" o in
    let* () =
      match kind with
      | Json.Str "bool" -> Ok ()
      | v -> err "model JSON: bad variable kind %s" (Json.to_string v)
    in
    let name = Option.bind (Json.mem "name" o) Json.to_str in
    let x = bool_var ?name m in
    let* lb =
      match Json.mem "lb" o with None -> Ok 0. | Some v -> num "lb" v
    in
    let* ub =
      match Json.mem "ub" o with None -> Ok 1. | Some v -> num "ub" v
    in
    if lb < 0. || ub > 1. || lb > ub then
      err "model JSON: variable %s bounds [%g, %g] outside [0, 1]"
        (name_of m x) lb ub
    else begin
      let vi = m.vars.(x) in
      vi.lb <- lb;
      vi.ub <- ub;
      Ok ()
    end
  in
  let cmp_of_json = function
    | Json.Str "le" -> Ok Le
    | Json.Str "ge" -> Ok Ge
    | Json.Str "eq" -> Ok Eq
    | v -> err "model JSON: bad cmp %s" (Json.to_string v)
  in
  let add_row o =
    let name = Option.bind (Json.mem "name" o) Json.to_str in
    let* cj = field "cmp" o in
    let* cmp = cmp_of_json cj in
    let* rj = field "rhs" o in
    let* rhs = num "rhs" rj in
    let* e = expr m.nvars "row" o in
    add_constraint ?name m e cmp rhs;
    Ok ()
  in
  let rec iter_result f = function
    | [] -> Ok ()
    | x :: tl ->
        let* () = f x in
        iter_result f tl
  in
  let* vars =
    let* v = field "vars" j in
    arr "vars" v
  in
  let* () = iter_result add_parsed_var vars in
  let* obj = field "objective" j in
  let* obj = expr m.nvars "objective" obj in
  set_objective m obj;
  let* rows =
    let* v = field "rows" j in
    arr "rows" v
  in
  let* () = iter_result add_row rows in
  Ok m
