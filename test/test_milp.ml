(* Unit and property tests for the MILP substrate: expressions, model,
   logical encodings, and the PB search checked against brute-force
   enumeration. *)

module Lin_expr = Milp.Lin_expr
module Model = Milp.Model
module Bool_encode = Milp.Bool_encode
module Solver = Milp.Solver

let checkb = Alcotest.(check bool)
let checkf = Alcotest.(check (float 1e-9))
let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Lin_expr                                                            *)

let test_expr_algebra () =
  let e = Lin_expr.(add (var 0) (var ~coef:2. 1)) in
  checkf "coef 0" 1. (Lin_expr.coef e 0);
  checkf "coef 1" 2. (Lin_expr.coef e 1);
  checkf "coef absent" 0. (Lin_expr.coef e 7);
  let e = Lin_expr.add_term e 0 (-1.) in
  checkb "zero coefficient dropped" true (Lin_expr.vars e = [ 1 ]);
  let s = Lin_expr.scale 3. e in
  checkf "scaled" 6. (Lin_expr.coef s 1);
  checkb "scale by zero is zero" true
    (Lin_expr.is_constant (Lin_expr.scale 0. s));
  let d = Lin_expr.sub s s in
  checkb "x - x = 0" true (Lin_expr.is_constant d);
  checkf "constant of diff" 0. (Lin_expr.constant d)

let test_expr_eval () =
  let e = Lin_expr.of_terms ~constant:5. [ (0, 2.); (3, -1.) ] in
  checkf "eval" (5. +. 4. -. 3.)
    (Lin_expr.eval e (fun x -> if x = 0 then 2. else 3.));
  checkf "complement eval" 0.25
    (Lin_expr.eval (Lin_expr.complement 2) (fun _ -> 0.75))

let test_expr_of_terms_accumulates () =
  let e = Lin_expr.of_terms [ (1, 2.); (1, 3.) ] in
  checkf "accumulated" 5. (Lin_expr.coef e 1)

let test_expr_map_vars () =
  let e = Lin_expr.of_terms [ (0, 1.); (1, 2.) ] in
  let m = Lin_expr.map_vars (fun x -> x + 10) e in
  checkf "mapped" 2. (Lin_expr.coef m 11);
  match Lin_expr.map_vars (fun _ -> 5) e with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "non-injective mapping must be rejected"

let prop_expr_add_commutes =
  let arb =
    QCheck.make
      QCheck.Gen.(
        list_size (int_range 0 8)
          (pair (int_range 0 5) (float_range (-4.) 4.)))
      ~print:QCheck.Print.(list (pair int float))
  in
  QCheck.Test.make ~name:"expression addition commutes (eval)" ~count:200
    (QCheck.pair arb arb) (fun (t1, t2) ->
      let e1 = Lin_expr.of_terms t1 and e2 = Lin_expr.of_terms t2 in
      let v x = float_of_int ((x * 7) mod 3) in
      Float.abs
        (Lin_expr.eval (Lin_expr.add e1 e2) v
        -. Lin_expr.eval (Lin_expr.add e2 e1) v)
      < 1e-9)

(* ------------------------------------------------------------------ *)
(* Model                                                               *)

let test_model_vars_bounds () =
  let m = Model.create () in
  let x = Model.bool_var ~name:"x" m in
  let y = Model.bool_var m in
  check_int "count" 2 (Model.var_count m);
  Alcotest.(check string) "name" "x" (Model.name_of m x);
  Alcotest.(check string) "default name" "x1" (Model.name_of m y);
  checkf "lb" 0. (Model.lower_bound m y);
  checkf "ub" 1. (Model.upper_bound m y);
  Model.fix m x 1.;
  checkf "fixed lb" 1. (Model.lower_bound m x);
  (match Model.fix m x 0. with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "fix outside narrowed bounds must fail");
  match Model.fix m y 0.5 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "non-integral fix must fail"

let test_model_constraints_and_feasibility () =
  let m = Model.create () in
  let x = Model.bool_var m and y = Model.bool_var m in
  Model.add_constraint m Lin_expr.(add (var x) (var y)) Model.Ge 1.;
  Model.set_objective m (Lin_expr.var x);
  check_int "one row" 1 (Model.constraint_count m);
  checkb "feasible" true (Model.is_feasible m (fun _ -> 1.));
  checkb "infeasible" false (Model.is_feasible m (fun _ -> 0.));
  checkb "violations found" true
    (List.length (Model.violated_constraints m (fun _ -> 0.)) = 1);
  checkf "objective" 1. (Model.objective_value m (fun _ -> 1.))

let test_model_copy_isolation () =
  let m = Model.create () in
  let x = Model.bool_var m in
  let m' = Model.copy m in
  Model.fix m' x 1.;
  Model.add_constraint m' (Lin_expr.var x) Model.Le 0.;
  checkf "original bounds untouched" 0. (Model.lower_bound m x);
  check_int "original rows untouched" 0 (Model.constraint_count m)

(* Certificates embed models as JSON: a 0-1 variable round-trips as
   {"kind": "bool"}, and any other kind is refused. *)
let test_model_json_kinds () =
  let module J = Archex_obs.Json in
  let m = Model.create () in
  let x = Model.bool_var ~name:"x" m in
  Model.fix m x 1.;
  let j = Model.to_json m in
  (match Model.of_json j with
  | Ok m' ->
      checkb "round trip" true (J.equal (Model.to_json m') j);
      checkf "fixed lb kept" 1. (Model.lower_bound m' x)
  | Error e -> Alcotest.failf "round trip rejected: %s" e);
  let with_kind kind =
    J.Obj
      [ ( "vars",
          J.Arr [ J.Obj [ ("kind", kind); ("lb", J.Num 0.); ("ub", J.Num 3.) ] ]
        );
        ("objective", J.Obj [ ("terms", J.Arr []) ]);
        ("rows", J.Arr []) ]
  in
  checkb "int kind rejected" true
    (Result.is_error
       (Model.of_json
          (with_kind (J.Obj [ ("int", J.Arr [ J.Num 0.; J.Num 3. ]) ]))));
  checkb "bool over [0, 3] rejected" true
    (Result.is_error (Model.of_json (with_kind (J.Str "bool"))))

let test_boolean_clause () =
  let m = Model.create () in
  let x = Model.bool_var m and y = Model.bool_var m in
  Model.add_boolean_clause m ~pos:[ x ] ~neg:[ y ];
  (* clause x ∨ ¬y: falsified only by x=0, y=1 *)
  checkb "00" true (Model.is_feasible m (fun _ -> 0.));
  checkb "x=0 y=1" false
    (Model.is_feasible m (fun v -> if v = y then 1. else 0.));
  checkb "11" true (Model.is_feasible m (fun _ -> 1.))

(* ------------------------------------------------------------------ *)
(* Bool_encode semantics: for every assignment of the inputs, the encoded
   output variable is forced to the logical value.                     *)

let assignments k =
  List.init (1 lsl k) (fun mask ->
      Array.init k (fun i -> mask land (1 lsl i) <> 0))

let force_and_solve m inputs values output =
  (* fix inputs, minimize output, then maximize: both must equal logic *)
  let sub = Model.copy m in
  Array.iteri
    (fun i x -> Model.fix sub x (if values.(i) then 1. else 0.))
    inputs;
  let solve_with obj =
    Model.set_objective sub obj;
    match Milp.Brute.solve sub with
    | Milp.Brute.Optimal { solution; _ } -> solution.(output)
    | Milp.Brute.Infeasible -> Alcotest.fail "encoding infeasible"
  in
  let low = solve_with (Lin_expr.var output) in
  let high = solve_with (Lin_expr.neg (Lin_expr.var output)) in
  (low, high)

let test_or_encoding () =
  List.iter
    (fun k ->
      let m = Model.create () in
      let inputs = Model.bool_vars m k in
      let y = Bool_encode.or_var m (Array.to_list inputs) in
      List.iter
        (fun values ->
          let expected = Array.exists Fun.id values in
          let low, high = force_and_solve m inputs values y in
          checkf "or min" (if expected then 1. else 0.) low;
          checkf "or max" (if expected then 1. else 0.) high)
        (assignments k))
    [ 0; 1; 2; 3 ]

let test_and_encoding () =
  List.iter
    (fun k ->
      let m = Model.create () in
      let inputs = Model.bool_vars m k in
      let y = Bool_encode.and_var m (Array.to_list inputs) in
      List.iter
        (fun values ->
          let expected = Array.for_all Fun.id values in
          let low, high = force_and_solve m inputs values y in
          checkf "and min" (if expected then 1. else 0.) low;
          checkf "and max" (if expected then 1. else 0.) high)
        (assignments k))
    [ 0; 1; 2; 3 ]

let test_count_channel () =
  let k = 4 in
  let m = Model.create () in
  let inputs = Model.bool_vars m k in
  let ind = Bool_encode.count_channel m (Array.to_list inputs) in
  check_int "k+1 indicators" (k + 1) (Array.length ind);
  List.iter
    (fun values ->
      let count =
        Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 values
      in
      Array.iteri
        (fun j x ->
          let expected = if j = count then 1. else 0. in
          let low, high = force_and_solve m inputs values x in
          checkf (Printf.sprintf "ind %d min" j) expected low;
          checkf (Printf.sprintf "ind %d max" j) expected high)
        ind)
    (assignments k)

let test_implication_encodings () =
  let m = Model.create () in
  let a = Model.bool_var m and b = Model.bool_var m and c = Model.bool_var m in
  Bool_encode.implies_or m a [ b; c ];
  let value a' b' c' v = if v = a then a' else if v = b then b' else c' in
  checkb "1→0∨0 violated" false (Model.is_feasible m (value 1. 0. 0.));
  checkb "1→1∨0 ok" true (Model.is_feasible m (value 1. 1. 0.));
  checkb "1→0∨1 ok" true (Model.is_feasible m (value 1. 0. 1.));
  checkb "0→0∨0 ok" true (Model.is_feasible m (value 0. 0. 0.))

let test_cardinality () =
  let m = Model.create () in
  let xs = Array.to_list (Model.bool_vars m 4) in
  Bool_encode.at_least_k m xs 2;
  let assign n v = if v < n then 1. else 0. in
  checkb "1 chosen violates at-least" false (Model.is_feasible m (assign 1));
  checkb "2 chosen ok" true (Model.is_feasible m (assign 2));
  checkb "4 chosen ok" true (Model.is_feasible m (assign 4))

(* ------------------------------------------------------------------ *)
(* PB search against brute force                                      *)

(* Random pure-boolean models with mixed-sign coefficients. *)
let gen_row nvars =
  QCheck.Gen.(
    let* terms =
      list_size (int_range 1 4)
        (pair (int_range 0 (nvars - 1)) (int_range (-4) 4))
    in
    let* cmp = oneofl [ Model.Le; Model.Ge; Model.Eq ] in
    let* rhs = int_range (-3) 5 in
    return (terms, cmp, rhs))

let gen_objective nvars =
  QCheck.Gen.(
    list_size (int_range 0 nvars)
      (pair (int_range 0 (nvars - 1)) (int_range (-5) 9)))

let gen_small_model =
  QCheck.Gen.(
    let* nvars = int_range 1 8 in
    let* nrows = int_range 0 6 in
    let* rows = list_repeat nrows (gen_row nvars) in
    let* obj = gen_objective nvars in
    return (nvars, rows, obj))

(* The larger size: enough variables and rows for conflicts and learning,
   mostly clause rows (Σ literals ≥ 1, a negative term being the
   complement) and cardinality rows, mostly at-most-k — the shapes of
   ILP-MR's path rows and of learned clauses. *)
let gen_large_model =
  QCheck.Gen.(
    let* nvars = int_range 12 16 in
    let var = int_range 0 (nvars - 1) in
    let clause =
      let* lits =
        list_size (int_range 2 4)
          (pair var (frequency [ (3, return true); (1, return false) ]))
      in
      let negatives =
        List.length (List.filter (fun (_, pos) -> not pos) lits)
      in
      return
        ( List.map (fun (x, pos) -> (x, if pos then 1 else -1)) lits,
          Model.Ge,
          1 - negatives )
    in
    let cardinality =
      let* xs = list_size (int_range 2 5) var in
      let* k = int_range 1 2 in
      let* cmp = frequency [ (3, return Model.Le); (1, return Model.Ge) ] in
      return (List.map (fun x -> (x, 1)) xs, cmp, k)
    in
    let* nrows = int_range 10 30 in
    let* rows =
      list_repeat nrows
        (frequency [ (6, clause); (4, cardinality); (1, gen_row nvars) ])
    in
    let* obj = gen_objective nvars in
    return (nvars, rows, obj))

let arb_of_gen gen =
  let print (nvars, rows, obj) =
    Printf.sprintf "nvars=%d rows=%d obj=%s" nvars (List.length rows)
      (String.concat ","
         (List.map (fun (x, c) -> Printf.sprintf "%d:%d" x c) obj))
  in
  QCheck.make gen ~print

let arb_bool_model = arb_of_gen gen_small_model

(* What the PB properties draw: both sizes. *)
let arb_pb_model =
  arb_of_gen
    QCheck.Gen.(frequency [ (2, gen_small_model); (1, gen_large_model) ])

let build_model (nvars, rows, obj) =
  let m = Model.create () in
  let _ = Model.bool_vars m nvars in
  List.iter
    (fun (terms, cmp, rhs) ->
      let expr =
        Lin_expr.of_terms
          (List.map (fun (x, c) -> (x, float_of_int c)) terms)
      in
      (* equality rows over random terms are almost always infeasible;
         keep them but loosen to ±1 window via two rows when Eq *)
      match cmp with
      | Model.Eq ->
          Model.add_constraint m expr Model.Le (float_of_int (rhs + 1));
          Model.add_constraint m expr Model.Ge (float_of_int (rhs - 1))
      | cmp -> Model.add_constraint m expr cmp (float_of_int rhs))
    rows;
  Model.set_objective m
    (Lin_expr.of_terms (List.map (fun (x, c) -> (x, float_of_int c)) obj));
  m

let prop_pb_agrees_with_brute =
  QCheck.Test.make ~name:"pb = brute force" ~count:150 arb_pb_model
    (fun spec ->
      let tested, _ = Solver.solve (build_model spec) in
      match (Milp.Brute.solve (build_model spec), tested) with
      | ( Milp.Brute.Optimal { objective = a; _ },
          Solver.Optimal { objective = b; _ } ) ->
          Float.abs (a -. b) < 1e-6
      | Milp.Brute.Infeasible, Solver.Infeasible -> true
      | _ -> false)

let prop_optimal_solution_is_feasible =
  QCheck.Test.make ~name:"pb optimum is feasible and matches objective"
    ~count:150 arb_pb_model (fun spec ->
      let m = build_model spec in
      match Solver.solve m with
      | Solver.Optimal { objective; solution }, _ ->
          Model.is_feasible m (fun x -> solution.(x))
          && Float.abs (Model.objective_value m (fun x -> solution.(x))
                        -. objective)
             < 1e-6
      | (Solver.Infeasible | Solver.Limit_reached _), _ -> true)

let test_pb_respects_fixed_vars () =
  let m = Model.create () in
  let x = Model.bool_var m and y = Model.bool_var m in
  Model.add_constraint m Lin_expr.(add (var x) (var y)) Model.Ge 1.;
  Model.set_objective m Lin_expr.(add (var ~coef:1. x) (var ~coef:2. y));
  Model.fix m x 0.;
  match Solver.solve m with
  | Solver.Optimal { objective; solution }, _ ->
      checkf "forced y" 2. objective;
      checkf "x stays 0" 0. solution.(x)
  | _ -> Alcotest.fail "expected optimal"

let test_empty_model () =
  let m = Model.create () in
  match Solver.solve m with
  | Solver.Optimal { objective; _ }, _ -> checkf "zero objective" 0. objective
  | _ -> Alcotest.fail "empty model is trivially optimal"

let test_all_vars_fixed () =
  let m = Model.create () in
  let x = Model.bool_var m and y = Model.bool_var m in
  Model.fix m x 1.;
  Model.fix m y 0.;
  Model.add_constraint m Lin_expr.(add (var x) (var y)) Model.Ge 1.;
  Model.set_objective m Lin_expr.(add (var ~coef:3. x) (var ~coef:5. y));
  match Solver.solve m with
  | Solver.Optimal { objective; solution }, _ ->
      checkf "objective" 3. objective;
      checkf "x" 1. solution.(x);
      checkf "y" 0. solution.(y)
  | _ -> Alcotest.fail "fully fixed feasible model"

let test_negative_objective_coefficients () =
  (* maximization in disguise: min -x - 2y st x + y ≤ 1 → pick y *)
  let m = Model.create () in
  let x = Model.bool_var m and y = Model.bool_var m in
  Model.add_constraint m Lin_expr.(add (var x) (var y)) Model.Le 1.;
  Model.set_objective m
    Lin_expr.(add (var ~coef:(-1.) x) (var ~coef:(-2.) y));
  match Solver.solve m with
  | Solver.Optimal { objective; solution }, _ ->
      checkf "objective" (-2.) objective;
      checkf "y chosen" 1. solution.(y)
  | _ -> Alcotest.fail "expected optimal"

let test_equality_row_propagation () =
  let m = Model.create () in
  let xs = Model.bool_vars m 3 in
  Model.add_constraint m
    (Lin_expr.of_terms (Array.to_list (Array.map (fun x -> (x, 1.)) xs)))
    Model.Eq 3.;
  Model.set_objective m
    (Lin_expr.of_terms (Array.to_list (Array.map (fun x -> (x, 1.)) xs)));
  match Solver.solve m with
  | Solver.Optimal { objective; _ }, stats ->
      checkf "all forced" 3. objective;
      checkb "no search needed" true (stats.Solver.nodes <= 3)
  | _ -> Alcotest.fail "expected optimal"

(* Pigeonhole PHP(8,7): 8 "pigeon in some hole" clause rows and 7 "hole
   holds at most one pigeon" cardinality rows.  Refuting it takes
   thousands of learned clauses, so the learned-clause database is reduced
   (and its watches rebuilt) at restarts along the way.  With [slack],
   pigeon i may instead stay out at cost 1 (s_i in its clause row): the
   optimum is then 1, behind the same refutation of cost 0. *)
let pigeonhole ~slack =
  let pigeons = 8 and holes = 7 in
  let m = Model.create () in
  let p = Array.init pigeons (fun _ -> Model.bool_vars m holes) in
  let sum xs = Lin_expr.of_terms (List.map (fun x -> (x, 1.)) xs) in
  let out = if slack then Model.bool_vars m pigeons else [||] in
  Array.iteri
    (fun i row ->
      let row = Array.to_list row in
      let row = if slack then out.(i) :: row else row in
      Model.add_constraint m (sum row) Model.Ge 1.)
    p;
  for h = 0 to holes - 1 do
    Model.add_constraint m
      (sum (List.init pigeons (fun i -> p.(i).(h))))
      Model.Le 1.
  done;
  Model.set_objective m (sum (Array.to_list out));
  Milp.Pb_solver.solve m

let test_pigeonhole_refuted () =
  match pigeonhole ~slack:false with
  | Milp.Pb_solver.Infeasible, stats ->
      checkb "database reduced along the way" true
        (stats.Milp.Pb_solver.learned > 2000)
  | _ -> Alcotest.fail "PHP(8,7) is infeasible"

let test_pigeonhole_slack_optimum () =
  match pigeonhole ~slack:true with
  | Milp.Pb_solver.Optimal { objective; _ }, stats ->
      checkf "one pigeon stays out" 1. objective;
      checkb "database reduced along the way" true
        (stats.Milp.Pb_solver.learned > 2000)
  | _ -> Alcotest.fail "PHP(8,7) with slack has optimum 1"

(* No hidden search: six pigeons, five holes of cost 1 holding one pigeon
   each, and a private fallback of cost 2 per pigeon.  [Obj_bound] packs
   the six disjoint pigeon rows into a bound of 6, strictly below the
   optimum 7, and refuting cost 6 is PHP(6,5), so the solve has to
   search.  The [pb.*] metrics count every PB search the solve runs; they
   must equal the counts it reports for the search whose answer it
   returns. *)
let test_no_hidden_search () =
  let pigeons = 6 and holes = 5 in
  let m = Model.create () in
  let p = Array.init pigeons (fun _ -> Model.bool_vars m holes) in
  let fallback = Model.bool_vars m pigeons in
  let terms c xs = List.map (fun x -> (x, c)) xs in
  Array.iteri
    (fun i row ->
      Model.add_constraint m
        (Lin_expr.of_terms (terms 1. (fallback.(i) :: Array.to_list row)))
        Model.Ge 1.)
    p;
  for h = 0 to holes - 1 do
    Model.add_constraint m
      (Lin_expr.of_terms (terms 1. (List.init pigeons (fun i -> p.(i).(h)))))
      Model.Le 1.
  done;
  Model.set_objective m
    (Lin_expr.of_terms
       (terms 1. (List.concat_map Array.to_list (Array.to_list p))
       @ terms 2. (Array.to_list fallback)));
  checkf "bound below the optimum" 6. (Milp.Obj_bound.lower_bound m);
  let metrics = Archex_obs.Metrics.create () in
  let metric name =
    int_of_float
      (Option.value (Archex_obs.Metrics.value metrics name) ~default:0.)
  in
  match Solver.solve ~obs:(Archex_obs.Ctx.make ~metrics ()) m with
  | Solver.Optimal { objective; _ }, stats ->
      checkf "optimum" 7. objective;
      checkb "searched" true (stats.Solver.conflicts > 0);
      check_int "pb.conflicts = stats.conflicts" stats.Solver.conflicts
        (metric "pb.conflicts");
      check_int "pb.decisions = stats.nodes" stats.Solver.nodes
        (metric "pb.decisions")
  | _ -> Alcotest.fail "expected optimum 7"

let test_time_limit_returns () =
  (* a deliberately large model: the solver must respect the limit *)
  let m = Model.create () in
  let xs = Model.bool_vars m 80 in
  (* pairwise conflicting knapsack-ish rows make it non-trivial *)
  Array.iteri
    (fun i _ ->
      if i > 0 then
        Model.add_constraint m
          Lin_expr.(add (var xs.(i)) (var xs.(i - 1)))
          Model.Le 1.)
    xs;
  Model.add_constraint m
    (Lin_expr.of_terms
       (Array.to_list (Array.mapi (fun i x -> (x, 1. +. float_of_int (i mod 7))) xs)))
    Model.Ge 40.;
  Model.set_objective m
    (Lin_expr.of_terms
       (Array.to_list (Array.mapi (fun i x -> (x, float_of_int (1 + (i mod 13)))) xs)));
  match
    Solver.solve ~budget:(Archex_resilience.Budget.create ~max_nodes:50 ()) m
  with
  | Solver.Limit_reached _, _ | Solver.Optimal _, _ | Solver.Infeasible, _ ->
      ()

(* ------------------------------------------------------------------ *)
(* Objective lower bound                                               *)

let prop_obj_bound_is_valid =
  QCheck.Test.make ~name:"Obj_bound.lower_bound <= brute optimum" ~count:150
    arb_bool_model (fun spec ->
      let m = build_model spec in
      let bound = Milp.Obj_bound.lower_bound m in
      match Milp.Brute.solve m with
      | Milp.Brute.Optimal { objective; _ } -> bound <= objective +. 1e-6
      | Milp.Brute.Infeasible -> true)

let test_obj_bound_packs_disjoint_rows () =
  (* two disjoint at-least-2 rows over costed variables: bound = the two
     cheapest of each group *)
  let m = Model.create () in
  let a = Model.bool_vars m 3 and b = Model.bool_vars m 3 in
  Bool_encode.at_least_k m (Array.to_list a) 2;
  Bool_encode.at_least_k m (Array.to_list b) 2;
  Model.set_objective m
    (Lin_expr.of_terms
       [ (a.(0), 5.); (a.(1), 3.); (a.(2), 8.);
         (b.(0), 10.); (b.(1), 20.); (b.(2), 7.) ]);
  (* 3+5 from the first group, 7+10 from the second *)
  checkf "packed bound" 25. (Milp.Obj_bound.lower_bound m);
  match Milp.Obj_bound.strengthen m with
  | Some bound ->
      checkf "strengthen returns the bound" 25. bound;
      (* the added row must not cut the optimum *)
      (match Milp.Brute.solve m with
      | Milp.Brute.Optimal { objective; _ } ->
          checkf "optimum preserved" 25. objective
      | Milp.Brute.Infeasible -> Alcotest.fail "feasible model")
  | None -> Alcotest.fail "bound should strengthen"

let test_obj_bound_overlapping_not_double_counted () =
  let m = Model.create () in
  let xs = Model.bool_vars m 3 in
  (* two rows over the same support: only one may be counted *)
  Bool_encode.at_least_k m (Array.to_list xs) 1;
  Bool_encode.at_least_k m (Array.to_list xs) 2;
  Model.set_objective m
    (Lin_expr.of_terms [ (xs.(0), 4.); (xs.(1), 6.); (xs.(2), 9.) ]);
  checkf "counts the stronger row once" 10. (Milp.Obj_bound.lower_bound m)

(* ------------------------------------------------------------------ *)
(* Var_heap                                                            *)

let test_var_heap_orders_by_activity () =
  let h = Milp.Var_heap.create 5 in
  Milp.Var_heap.bump h 2 10.;
  Milp.Var_heap.bump h 4 20.;
  Milp.Var_heap.bump h 0 15.;
  Alcotest.(check (option int)) "max" (Some 4) (Milp.Var_heap.pop_max h);
  Alcotest.(check (option int)) "next" (Some 0) (Milp.Var_heap.pop_max h);
  checkb "popped not member" false (Milp.Var_heap.mem h 4);
  Milp.Var_heap.push h 4;
  checkb "pushed back" true (Milp.Var_heap.mem h 4);
  Alcotest.(check (option int)) "re-popped max" (Some 4)
    (Milp.Var_heap.pop_max h)

let test_var_heap_drains () =
  let h = Milp.Var_heap.create 3 in
  let seen = ref [] in
  let rec drain () =
    match Milp.Var_heap.pop_max h with
    | Some v -> seen := v :: !seen; drain ()
    | None -> ()
  in
  drain ();
  Alcotest.(check int) "all three" 3 (List.length !seen);
  Alcotest.(check (option int)) "empty" None (Milp.Var_heap.pop_max h)

(* The solver rescales every activity by 1e-100 when one overflows: a
   positive factor keeps the heap order, so no rebuild is needed. *)
let test_var_heap_rescale_keeps_order () =
  let h = Milp.Var_heap.create 6 in
  List.iter (fun (x, a) -> Milp.Var_heap.bump h x a)
    [ (0, 2.); (1, 9.); (2, 4.); (3, 1.); (4, 7.); (5, 3.) ];
  Milp.Var_heap.rescale h 0.5;
  checkf "rescaled activity" 4.5 (Milp.Var_heap.activity h 1);
  let rec drain acc =
    match Milp.Var_heap.pop_max h with
    | Some x -> drain (x :: acc)
    | None -> List.rev acc
  in
  checkb "order survives rescale" true (drain [] = [ 1; 4; 2; 5; 0; 3 ])

(* ------------------------------------------------------------------ *)
(* LP format                                                           *)

let test_lp_format_mentions_everything () =
  let m = Model.create () in
  let x = Model.bool_var ~name:"pick me" m in
  let y = Model.bool_var ~name:"level" m in
  Model.fix m y 1.;
  Model.add_constraint ~name:"cap" m Lin_expr.(add (var x) (var y)) Model.Le
    2.;
  Model.set_objective m (Lin_expr.var x);
  let text = Milp.Lp_format.to_string m in
  checkb "has Minimize" true (String.length text > 0);
  checkb "mentions Binary" true
    (String.split_on_char '\n' text |> List.exists (fun l -> l = "Binary"));
  checkb "fixed variable bounded" true
    (String.split_on_char '\n' text
    |> List.exists (fun l -> l = " 1 <= level_1 <= 1"));
  checkb "free variable not bounded" false
    (String.split_on_char '\n' text
    |> List.exists (fun l -> l = " 0 <= pick_me_0 <= 1"));
  checkb "sanitized name" true
    (String.split_on_char '\n' text
    |> List.exists (fun l ->
           try ignore (String.index l 'c'); String.length l > 0
           with Not_found -> false))

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  let prop t = QCheck_alcotest.to_alcotest t in
  Alcotest.run "milp"
    [ ( "lin_expr",
        [ quick "algebra" test_expr_algebra;
          quick "eval" test_expr_eval;
          quick "of_terms accumulates" test_expr_of_terms_accumulates;
          quick "map_vars" test_expr_map_vars;
          prop prop_expr_add_commutes ] );
      ( "model",
        [ quick "variables and bounds" test_model_vars_bounds;
          quick "constraints and feasibility"
            test_model_constraints_and_feasibility;
          quick "copy isolation" test_model_copy_isolation;
          quick "json rejects non-0-1 kinds" test_model_json_kinds;
          quick "boolean clause" test_boolean_clause ] );
      ( "bool_encode",
        [ quick "or" test_or_encoding;
          quick "and" test_and_encoding;
          quick "count channel (Eqs. 10-11)" test_count_channel;
          quick "implication" test_implication_encodings;
          quick "cardinality" test_cardinality ] );
      ( "backends",
        [ prop prop_pb_agrees_with_brute;
          prop prop_optimal_solution_is_feasible;
          quick "fixed variables respected" test_pb_respects_fixed_vars;
          quick "empty model" test_empty_model;
          quick "all variables fixed" test_all_vars_fixed;
          quick "negative objective coefficients"
            test_negative_objective_coefficients;
          quick "equality rows propagate" test_equality_row_propagation;
          quick "pigeonhole PHP(8,7) refuted" test_pigeonhole_refuted;
          quick "pigeonhole with slack: optimum 1"
            test_pigeonhole_slack_optimum;
          quick "node limit returns" test_time_limit_returns;
          quick "no hidden search" test_no_hidden_search ] );
      ( "obj_bound",
        [ prop prop_obj_bound_is_valid;
          quick "packs disjoint rows" test_obj_bound_packs_disjoint_rows;
          quick "no double counting on overlap"
            test_obj_bound_overlapping_not_double_counted ] );
      ( "var_heap",
        [ quick "orders by activity" test_var_heap_orders_by_activity;
          quick "drains completely" test_var_heap_drains;
          quick "rescale keeps order" test_var_heap_rescale_keeps_order ] );
      ( "lp_format",
        [ quick "sections present" test_lp_format_mentions_everything ] ) ]
