(* Optimality certificates for the exact 0-1 solvers.

   A certificate is a self-contained JSON value: the model, the claimed
   incumbent (absent for an infeasibility claim) and a binary pruning
   tree whose leaves each carry an arithmetic justification — either a
   constraint row that cannot be satisfied under the branch assignment,
   or the claim that the minimum achievable objective under it already
   matches the incumbent.  Checking a certificate therefore needs only
   interval arithmetic over the model ({!Milp.Model} / {!Milp.Lin_expr});
   no solver code is involved, so a bug in the CDCL or branch-and-bound
   backends cannot hide in the proof.

   The generator below is NOT the production solver: it is a transparent
   DFS that re-proves the incumbent's optimality after the fast solver
   found it, emitting the pruning tree as it closes the search space.
   Its leaf conditions are the very functions the checker replays, so an
   emitted certificate checks by construction. *)

module J = Archex_obs.Json
module Model = Milp.Model
module Lin_expr = Milp.Lin_expr

let ( let* ) = Result.bind
let errf fmt = Printf.ksprintf (fun s -> Error s) fmt

(* ------------------------------------------------------------------ *)
(* Compiled models: interval arithmetic over a partial assignment      *)

(* [value.(x)] is the branch assignment; NaN means unassigned, in which
   case the variable ranges over its model bounds. *)
let unassigned = Float.nan

let is_assigned v = not (Float.is_nan v)

(* A linear expression as parallel arrays in [Lin_expr.terms] order.
   [umin.(k)]/[umax.(k)] are what term [k] contributes to the minimum and
   maximum while its variable is unassigned: the smaller and larger of
   [a·lb] and [a·ub], computed once. *)
type expr = {
  vars : int array;
  coefs : float array;
  umin : float array;
  umax : float array;
  const : float;
}

(* [maxw] is the row's largest |coefficient|: no single term can swing
   the row's range further than that. *)
type row = {
  e : expr;
  cmp : Model.cmp;
  rhs : float;
  tol : float;
  maxw : float;
}

type compiled = {
  lb : float array;
  ub : float array;
  rows : row array;
  obj : expr;
}

let compile_expr lb ub e =
  let terms = Array.of_list (Lin_expr.terms e) in
  let vars = Array.map fst terms and coefs = Array.map snd terms in
  let over_bounds pick =
    Array.mapi
      (fun k x -> pick (coefs.(k) *. lb.(x)) (coefs.(k) *. ub.(x)))
      vars
  in
  { vars;
    coefs;
    umin = over_bounds Float.min;
    umax = over_bounds Float.max;
    const = Lin_expr.constant e }

let compile m =
  let n = Model.var_count m in
  let lb = Array.init n (Model.lower_bound m) in
  let ub = Array.init n (Model.upper_bound m) in
  let row { Model.expr; cmp; rhs; _ } =
    let e = compile_expr lb ub expr in
    let maxw =
      Array.fold_left (fun acc a -> Float.max acc (Float.abs a)) 0. e.coefs
    in
    (* feasibility tolerance relative to the row's own scale *)
    let scale = Float.max maxw (Float.max 1. (Float.abs rhs)) in
    { e; cmp; rhs; tol = 1e-9 *. scale; maxw }
  in
  { lb;
    ub;
    rows = Array.of_list (List.map row (Model.constraints m));
    obj = compile_expr lb ub (Model.objective m) }

type range = { mutable lo : float; mutable hi : float }

(* The range of [e] over every extension of [value], written to [r]: the
   one evaluator behind every leaf condition, in generator and checker. *)
let minmax value e r =
  let lo = ref e.const and hi = ref e.const in
  for k = 0 to Array.length e.vars - 1 do
    let v = value.(e.vars.(k)) in
    if is_assigned v then begin
      let av = e.coefs.(k) *. v in
      lo := !lo +. av;
      hi := !hi +. av
    end
    else begin
      lo := !lo +. e.umin.(k);
      hi := !hi +. e.umax.(k)
    end
  done;
  r.lo <- !lo;
  r.hi <- !hi

(* Whether no extension can satisfy [row], given its range [r]. *)
let infeasible row r =
  match row.cmp with
  | Model.Ge -> r.hi < row.rhs -. row.tol
  | Model.Le -> r.lo > row.rhs +. row.tol
  | Model.Eq -> r.hi < row.rhs -. row.tol || r.lo > row.rhs +. row.tol

let min_objective cm value r =
  minmax value cm.obj r;
  r.lo

(* Minimal improvement a better solution would need: with an all-integral
   objective the next value down is a full unit away, otherwise only a
   relative tolerance separates "better" from "equal".  Recomputed from
   the model by both generator and checker — never trusted from the
   certificate. *)
let objective_gap cm c =
  let integral a = Float.abs (a -. Float.round a) < 1e-9 in
  if Array.for_all integral cm.obj.coefs && integral cm.obj.const then
    1. -. 1e-6
  else 1e-6 *. Float.max 1. (Float.abs c)

(* ------------------------------------------------------------------ *)
(* Incumbent verification — shared by generator and checker            *)

let verify_incumbent m (c, sol) =
  let nvars = Model.var_count m in
  if Array.length sol <> nvars then
    errf "incumbent solution has %d entries, model has %d variables"
      (Array.length sol) nvars
  else
    let assignment x = sol.(x) in
    match Model.violated_constraints m assignment with
    | r :: _ ->
        errf "incumbent violates constraint %s"
          (match r.Model.cname with Some n -> n | None -> "<unnamed>")
    | [] ->
        if not (Model.is_feasible m assignment) then
          Error "incumbent violates a variable bound"
        else
          let obj = Model.objective_value m assignment in
          if Float.abs (obj -. c) > 1e-6 *. Float.max 1. (Float.abs c) then
            errf "incumbent objective mismatch: claimed %g, recomputed %g" c
              obj
          else Ok ()

(* ------------------------------------------------------------------ *)
(* Generator                                                           *)

let default_node_budget = 2_000_000

exception Cert_error of string

(* A row's cached state in the search: [row_infeasible], or the first
   free unassigned variable one of whose values alone would make the row
   infeasible (its "bad" branch then closes as a one-node leaf), or -1. *)
let row_infeasible = -2

(* The first such variable from term [k] on.  [need_hi]: the row needs
   its max kept high (Ge sense); otherwise its min kept low (Le sense). *)
let rec first_forced free value row r ~need_hi k =
  if k = Array.length row.e.vars then -1
  else
    let x = row.e.vars.(k) and width = Float.abs row.e.coefs.(k) in
    let bad =
      if need_hi then r.hi -. width < row.rhs -. row.tol
      else r.lo +. width > row.rhs +. row.tol
    in
    if free.(x) && (not (is_assigned value.(x))) && bad then x
    else first_forced free value row r ~need_hi (k + 1)

(* Whether even the widest term could make the row infeasible on its
   own; when not, no term can (float subtraction is monotone), so the
   scan would find nothing. *)
let can_force row r ~need_hi =
  if need_hi then r.hi -. row.maxw < row.rhs -. row.tol
  else r.lo +. row.maxw > row.rhs +. row.tol

let forced_from free value row r ~need_hi =
  if can_force row r ~need_hi then first_forced free value row r ~need_hi 0
  else -1

let row_state free value row r =
  minmax value row.e r;
  if infeasible row r then row_infeasible
  else
    match row.cmp with
    | Model.Ge -> forced_from free value row r ~need_hi:true
    | Model.Le -> forced_from free value row r ~need_hi:false
    | Model.Eq ->
        let x = forced_from free value row r ~need_hi:true in
        if x >= 0 then x else forced_from free value row r ~need_hi:false

let leaf_bound = J.Obj [ ("leaf", J.Str "bound") ]

let certify ?(node_budget = default_node_budget) m ~incumbent =
  let* () =
    match incumbent with
    | None -> Ok ()
    | Some inc -> verify_incumbent m inc
  in
  let cm = compile m in
  let nvars = Model.var_count m and nrows = Array.length cm.rows in
  let value = Array.make nvars unassigned in
  let free = Array.init nvars (fun x -> cm.lb.(x) < cm.ub.(x)) in
  let gap =
    match incumbent with Some (c, _) -> objective_gap cm c | None -> 0.
  in
  (* static branch order: objective weight descending, so the incumbent
     bound engages as early as possible; row-forced variables override
     it dynamically *)
  let by_cost =
    let coef = Array.make nvars 0. in
    Array.iteri (fun k x -> coef.(x) <- cm.obj.coefs.(k)) cm.obj.vars;
    List.init nvars Fun.id
    |> List.filter (fun x -> free.(x))
    |> List.sort (fun a b ->
           Float.compare (Float.abs coef.(b)) (Float.abs coef.(a)))
    |> Array.of_list
  in
  (* the rows each variable occurs in *)
  let occ =
    let acc = Array.make nvars [] in
    for i = nrows - 1 downto 0 do
      Array.iter (fun x -> acc.(x) <- i :: acc.(x)) cm.rows.(i).e.vars
    done;
    Array.map Array.of_list acc
  in
  (* A row's state depends on its own variables only, so setting or
     unsetting [x] recomputes the rows in [occ.(x)] — from scratch, in
     term order, so every range is the same float as a full rescan's. *)
  let r = { lo = 0.; hi = 0. } in
  let state =
    Array.init nrows (fun i -> row_state free value cm.rows.(i) r)
  in
  let assign x v =
    value.(x) <- v;
    let rows = occ.(x) in
    for k = 0 to Array.length rows - 1 do
      let i = rows.(k) in
      state.(i) <- row_state free value cm.rows.(i) r
    done
  in
  (* the first infeasible row, or failing that the first row's forced
     variable *)
  let rec scan i forced =
    if i = nrows then if forced >= 0 then `Forced forced else `Open
    else
      let s = state.(i) in
      if s = row_infeasible then `Infeasible i
      else scan (i + 1) (if forced < 0 then s else forced)
  in
  (* tree pieces are immutable, so every node shares them *)
  let leaves =
    Array.init nrows (fun i ->
        J.Obj
          [ ("leaf", J.Str "infeasible"); ("row", J.Num (float_of_int i)) ])
  in
  let var_fields =
    Array.init nvars (fun x -> ("var", J.Num (float_of_int x)))
  in
  let branch x zero one =
    J.Obj [ var_fields.(x); ("zero", zero); ("one", one) ]
  in
  let nodes = ref 0 in
  let pick_static () =
    let n = Array.length by_cost in
    let rec go i =
      if i >= n then None
      else begin
        let x = by_cost.(i) in
        if is_assigned value.(x) then go (i + 1) else Some x
      end
    in
    go 0
  in
  let rec dfs () =
    incr nodes;
    if !nodes > node_budget then
      raise
        (Cert_error
           (Printf.sprintf "node budget exceeded (%d nodes)" node_budget));
    match scan 0 (-1) with
    | `Infeasible i -> leaves.(i)
    | (`Forced _ | `Open) as s -> (
        let bounded =
          match incumbent with
          | Some (c, _) -> min_objective cm value r >= c -. gap
          | None -> false
        in
        if bounded then leaf_bound
        else
          let x =
            match s with `Forced x -> Some x | `Open -> pick_static ()
          in
          match x with
          | Some x ->
              assign x 0.;
              let zero = dfs () in
              assign x 1.;
              let one = dfs () in
              assign x unassigned;
              branch x zero one
          | None ->
              (* complete feasible assignment that neither an infeasible
                 row nor the incumbent bound excludes: the claim fails *)
              raise
                (Cert_error
                   (match incumbent with
                   | Some (c, _) ->
                       Printf.sprintf
                         "found a feasible solution with objective %g, \
                          better than the incumbent %g — solver result \
                          is not optimal"
                         (min_objective cm value r) c
                   | None -> "model is feasible but was claimed infeasible")))
  in
  match dfs () with
  | exception Cert_error e -> Error e
  | tree ->
      let incumbent_json =
        match incumbent with
        | None -> []
        | Some (c, sol) ->
            [ ( "incumbent",
                J.Obj
                  [ ("objective", J.Num c);
                    ( "solution",
                      J.Arr
                        (Array.to_list (Array.map (fun v -> J.Num v) sol))
                    ) ] ) ]
      in
      Ok
        (J.Obj
           ([ ("format", J.Str "archex-cert");
              ("version", J.Num 1.);
              ("model", Model.to_json m) ]
           @ incumbent_json
           @ [ ("nodes", J.Num (float_of_int !nodes)); ("tree", tree) ]))

(* ------------------------------------------------------------------ *)
(* Checker                                                             *)

type summary = {
  objective : float option;
  vars : int;
  rows : int;
  tree_nodes : int;
}

let field name j =
  match J.mem name j with
  | Some v -> Ok v
  | None -> errf "certificate: missing %S" name

let num ctx = function
  | J.Num v -> Ok v
  | v -> errf "certificate: %s must be a number, got %s" ctx (J.to_string v)

let int_field ctx v =
  let* x = num ctx v in
  if Float.is_integer x then Ok (int_of_float x)
  else errf "certificate: %s must be an integer" ctx

let expect_format name j =
  match (J.mem "format" j, J.mem "version" j) with
  | Some (J.Str f), Some (J.Num 1.) when f = name -> Ok ()
  | Some (J.Str f), _ when f <> name ->
      errf "certificate: expected format %S, got %S" name f
  | _ -> errf "certificate: missing or unsupported format/version"

let check cert =
  let* () = expect_format "archex-cert" cert in
  let* model_json = field "model" cert in
  let* m = Model.of_json model_json in
  let nvars = Model.var_count m in
  let cm = compile m in
  let nrows = Array.length cm.rows in
  let* incumbent =
    match J.mem "incumbent" cert with
    | None -> Ok None
    | Some inc ->
        let* c = Result.bind (field "objective" inc) (num "objective") in
        let* sol = field "solution" inc in
        let* sol =
          match sol with
          | J.Arr l ->
              let rec go acc = function
                | [] -> Ok (Array.of_list (List.rev acc))
                | J.Num v :: tl -> go (v :: acc) tl
                | v :: _ ->
                    errf "certificate: non-numeric solution entry %s"
                      (J.to_string v)
              in
              go [] l
          | v ->
              errf "certificate: solution must be an array, got %s"
                (J.to_string v)
        in
        Ok (Some (c, sol))
  in
  let* () =
    match incumbent with
    | None -> Ok ()
    | Some inc ->
        Result.map_error (fun e -> "certificate: " ^ e) (verify_incumbent m inc)
  in
  let gap =
    match incumbent with Some (c, _) -> objective_gap cm c | None -> 0.
  in
  let value = Array.make nvars unassigned in
  let r = { lo = 0.; hi = 0. } in
  let count = ref 0 in
  (* a node's path is kept as its branch tags, innermost first, and
     rendered only into an error message *)
  let at rev_tags = String.concat "." ("tree" :: List.rev rev_tags) in
  let index name t rev_tags =
    let* v = field name t in
    match v with
    | J.Num x when Float.is_integer x -> Ok (int_of_float x)
    | v -> int_field (at rev_tags ^ "." ^ name) v
  in
  let rec walk rev_tags t =
    incr count;
    match t with
    | J.Obj fields when List.mem_assoc "leaf" fields -> (
        match List.assoc "leaf" fields with
        | J.Str "bound" -> (
            match incumbent with
            | None ->
                errf "%s: bound leaf in an infeasibility certificate"
                  (at rev_tags)
            | Some (c, _) ->
                let lo = min_objective cm value r in
                if lo >= c -. gap then Ok ()
                else
                  errf
                    "%s: bound leaf not justified — min achievable \
                     objective %g is below incumbent %g - gap %g"
                    (at rev_tags) lo c gap)
        | J.Str "infeasible" ->
            let* i = index "row" t rev_tags in
            if i < 0 || i >= nrows then
              errf "%s: row index %d out of range (%d rows)" (at rev_tags) i
                nrows
            else begin
              minmax value cm.rows.(i).e r;
              if infeasible cm.rows.(i) r then Ok ()
              else
                errf
                  "%s: row %d (%s) is still satisfiable under the branch \
                   assignment"
                  (at rev_tags) i
                  (match (List.nth (Model.constraints m) i).Model.cname with
                  | Some n -> n
                  | None -> "<unnamed>")
            end
        | v -> errf "%s: unknown leaf kind %s" (at rev_tags) (J.to_string v))
    | J.Obj fields when List.mem_assoc "var" fields ->
        let* x = index "var" t rev_tags in
        if x < 0 || x >= nvars then
          errf "%s: variable index %d out of range (%d vars)" (at rev_tags) x
            nvars
        else if is_assigned value.(x) then
          errf "%s: branches twice on variable %s" (at rev_tags)
            (Model.name_of m x)
        else
          let* zero = field "zero" t in
          let* one = field "one" t in
          let child v sub tag =
            (* a branch value outside the variable's (narrowed) bounds
               covers no feasible point: the subtree is vacuously valid *)
            if v < cm.lb.(x) -. 1e-9 || v > cm.ub.(x) +. 1e-9 then Ok ()
            else begin
              value.(x) <- v;
              let res = walk (tag :: rev_tags) sub in
              value.(x) <- unassigned;
              res
            end
          in
          let* () = child 0. zero "zero" in
          child 1. one "one"
    | v -> errf "%s: malformed tree node %s" (at rev_tags) (J.to_string v)
  in
  let* tree = field "tree" cert in
  let* () = walk [] tree in
  Ok
    { objective = Option.map fst incumbent;
      vars = nvars;
      rows = nrows;
      tree_nodes = !count }

(* ------------------------------------------------------------------ *)
(* ILP-MR certificate chains                                           *)

let chain ~r_star ~iterations ~final_objective =
  J.Obj
    [ ("format", J.Str "archex-mr-cert");
      ("version", J.Num 1.);
      ("r_star", J.Num r_star);
      ( "iterations",
        J.Arr
          (List.mapi
             (fun i (cert, learned) ->
               J.Obj
                 [ ("index", J.Num (float_of_int i));
                   ("cert", cert);
                   ("learned", J.Arr learned) ])
             iterations) );
      ( "final",
        J.Obj
          [ ( "objective",
              match final_objective with Some c -> J.Num c | None -> J.Null
            ) ] ) ]

type chain_summary = {
  iterations : int;
  final_objective : float option;
  total_tree_nodes : int;
}

(* var/row arrays of a per-iteration certificate's embedded model, as raw
   JSON (prefix chaining compares them structurally) *)
let model_arrays cert =
  let* model = field "model" cert in
  let* vars = field "vars" model in
  let* rows = field "rows" model in
  match (vars, rows) with
  | J.Arr vs, J.Arr rs -> Ok (vs, rs)
  | _ -> Error "certificate: model vars/rows must be arrays"

let rec is_prefix eq xs ys =
  match (xs, ys) with
  | [], _ -> true
  | _, [] -> false
  | x :: xs, y :: ys -> eq x y && is_prefix eq xs ys

let row_name row =
  match J.mem "name" row with Some (J.Str n) -> Some n | _ -> None

let check_chain chain_json =
  let* () = expect_format "archex-mr-cert" chain_json in
  let* _ = Result.bind (field "r_star" chain_json) (num "r_star") in
  let* iters =
    match J.mem "iterations" chain_json with
    | Some (J.Arr ([ _ ] as l)) | Some (J.Arr (_ :: _ :: _ as l)) -> Ok l
    | _ -> Error "certificate: chain needs a non-empty iterations array"
  in
  let n = List.length iters in
  let rec go i prev total = function
    | [] -> Ok (prev, total)
    | it :: rest ->
        let* idx = Result.bind (field "index" it) (int_field "index") in
        let* () =
          if idx <> i then
            errf "certificate: iteration %d carries index %d" i idx
          else Ok ()
        in
        let* cert = field "cert" it in
        let* summary =
          Result.map_error
            (fun e -> Printf.sprintf "iteration %d: %s" i e)
            (check cert)
        in
        let* () =
          if summary.objective = None then
            errf "certificate: iteration %d proves infeasibility mid-chain" i
          else Ok ()
        in
        let* vars, rows = model_arrays cert in
        let* learned =
          match J.mem "learned" it with
          | Some (J.Arr l) -> Ok l
          | _ -> errf "certificate: iteration %d has no learned array" i
        in
        (* chaining: this model must extend the previous one by exactly the
           rows the previous iteration learned (plus nothing dropped) *)
        let* () =
          match prev with
          | None -> Ok ()
          | Some (pvars, prows, plearned, psummary) ->
              if not (is_prefix J.equal pvars vars) then
                errf
                  "certificate: iteration %d variables do not extend \
                   iteration %d"
                  i (i - 1)
              else if not (is_prefix J.equal prows rows) then
                errf
                  "certificate: iteration %d rows do not extend iteration %d"
                  i (i - 1)
              else begin
                let nprev = List.length prows in
                let added =
                  List.filteri (fun k _ -> k >= nprev) rows
                  |> List.filter_map row_name
                in
                let missing =
                  List.filter_map
                    (fun l ->
                      match J.mem "name" l with
                      | Some (J.Str nm) when not (List.mem nm added) ->
                          Some nm
                      | _ -> None)
                    plearned
                in
                match missing with
                | nm :: _ ->
                    errf
                      "certificate: learned constraint %S of iteration %d \
                       missing from iteration %d's model"
                      nm (i - 1) i
                | [] ->
                    if List.length rows <= nprev then
                      errf
                        "certificate: iteration %d adds no constraints over \
                         iteration %d"
                        i (i - 1)
                    else begin
                      (* monotone cost: adding constraints cannot cheapen
                         the optimum *)
                      match (psummary.objective, summary.objective) with
                      | Some a, Some b
                        when b < a -. (1e-6 *. Float.max 1. (Float.abs a)) ->
                          errf
                            "certificate: iteration %d optimum %g is below \
                             iteration %d optimum %g despite added \
                             constraints"
                            i b (i - 1) a
                      | _ -> Ok ()
                    end
              end
        in
        let* () =
          if i < n - 1 && learned = [] then
            errf
              "certificate: iteration %d learned nothing yet the chain \
               continues"
              i
          else Ok ()
        in
        go (i + 1)
          (Some (vars, rows, learned, summary))
          (total + summary.tree_nodes)
          rest
  in
  let* last, total = go 0 None 0 iters in
  let final_objective =
    match last with Some (_, _, _, s) -> s.objective | None -> None
  in
  let* () =
    let* final = field "final" chain_json in
    let* claimed = field "objective" final in
    match (claimed, final_objective) with
    | J.Null, None -> Ok ()
    | J.Num c, Some c'
      when Float.abs (c -. c') <= 1e-6 *. Float.max 1. (Float.abs c') ->
        Ok ()
    | _ ->
        errf "certificate: final objective %s does not match last iteration"
          (J.to_string claimed)
  in
  Ok { iterations = n; final_objective; total_tree_nodes = total }
