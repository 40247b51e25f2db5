module Digraph = Netgraph.Digraph
module Template = Archlib.Template
module Requirement = Archlib.Requirement
module Model = Milp.Model
module Lin_expr = Milp.Lin_expr
module Bool_encode = Milp.Bool_encode

type t = {
  template : Template.t;
  model : Model.t;
  edges : (int * int, Model.var) Hashtbl.t;
  deltas : Model.var option array;
}

let template t = t.template
let model t = t.model

let edge_var t u v = Hashtbl.find t.edges (u, v)
let edge_var_opt t u v = Hashtbl.find_opt t.edges (u, v)

let delta_var t v =
  if v < 0 || v >= Array.length t.deltas then
    invalid_arg "Gen_ilp.delta_var";
  t.deltas.(v)

let require_edge t (u, v) =
  match edge_var_opt t u v with
  | Some x -> x
  | None ->
      invalid_arg
        (Printf.sprintf
           "Gen_ilp: requirement references non-candidate edge (%d,%d)" u v)

let require_delta t v =
  match delta_var t v with
  | Some x -> x
  | None ->
      invalid_arg
        (Printf.sprintf
           "Gen_ilp: requirement references isolated node %d (no candidate \
            edges)"
           v)

let cmp_of_req = function
  | Requirement.Le -> Model.Le
  | Requirement.Ge -> Model.Ge
  | Requirement.Eq -> Model.Eq

(* Longest symmetry row: 2^19 keeps every coefficient far inside the
   solver's and the certificate checker's relative row tolerances. *)
let max_lex_terms = 20

(* One prefix of the lex-leader constraint x ≤lex σ(x) for the swap
   σ = (a b), a < b, of two interchangeable nodes.  Every symmetry row
   reads the variables in one order, the model's own: candidate edges by
   (u, v) descending (the order [encode] creates them in), then the rest.
   σ moves the edges in pairs, and in that order each pair's b-side
   member p comes first; the later member never decides the comparison,
   so the row is
     Σ_j 2^(k−j)·(x_{σ(p_j)} − x_{p_j}) ≥ 0
   over the first k pairs.  The full constraint implies every prefix and
   δ_a ≥ δ_b, so the lex-least member of each orbit of the declared swaps
   satisfies every row, and an optimum survives whenever the swaps are
   automorphisms of the model.  k is a's number of candidate successors:
   on a layered template the pair's out-edges come first, so the row
   covers exactly them. *)
let lex_row t g ~name a b =
  let incident v =
    List.map (fun u -> (u, v)) (Digraph.pred g v)
    @ List.map (fun w -> (v, w)) (Digraph.succ g v)
  in
  let swap v = if v = a then b else if v = b then a else v in
  let image (u, v) = (swap u, swap v) in
  let rec firsts seen = function
    | [] -> []
    | e :: rest when List.mem e seen -> firsts seen rest
    | e :: rest -> e :: firsts (image e :: seen) rest
  in
  let var (u, v) =
    match edge_var_opt t u v with
    | Some x -> x
    | None ->
        invalid_arg
          (Printf.sprintf
             "Gen_ilp: Usage_order nodes %d and %d are not interchangeable: \
              (%d,%d) is not a candidate edge"
             a b u v)
  in
  let pairs =
    List.sort_uniq (fun e f -> compare f e) (incident a @ incident b)
    |> firsts []
    |> List.map (fun p -> (var (image p), var p))
  in
  let k =
    min (List.length pairs)
      (min max_lex_terms (max 1 (List.length (Digraph.succ g a))))
  in
  let terms =
    List.filteri (fun j _ -> j < k) pairs
    |> List.mapi (fun j (x_a, x_b) ->
           let w = Float.ldexp 1. (k - 1 - j) in
           [ (x_a, w); (x_b, -.w) ])
    |> List.concat
  in
  Model.add_constraint ~name t.model (Lin_expr.of_terms terms) Model.Ge 0.

let lower_requirement t g index req =
  let name = Printf.sprintf "req%d" index in
  match req with
  | Requirement.Edge_card (edges, cmp, k) ->
      let expr =
        Lin_expr.sum
          (List.map (fun e -> Lin_expr.var (require_edge t e)) edges)
      in
      Model.add_constraint ~name t.model expr (cmp_of_req cmp)
        (float_of_int k)
  | Requirement.Linear_edges (terms, cmp, rhs) ->
      let expr =
        Lin_expr.of_terms
          (List.map (fun (e, w) -> (require_edge t e, w)) terms)
      in
      Model.add_constraint ~name t.model expr (cmp_of_req cmp) rhs
  | Requirement.Conditional_connect (ante, cons) ->
      (* Eq. 3: each antecedent edge implies the disjunction of the
         consequent edges. *)
      let cons_vars = List.map (require_edge t) cons in
      let imply e =
        Bool_encode.implies_or ~name t.model (require_edge t e) cons_vars
      in
      List.iter imply ante
  | Requirement.Usage_balance (providers, consumers) ->
      let term sign (v, w) = (require_delta t v, sign *. w) in
      let expr =
        Lin_expr.of_terms
          (List.map (term 1.) providers @ List.map (term (-1.)) consumers)
      in
      Model.add_constraint ~name t.model expr Model.Ge 0.
  | Requirement.Require_used v ->
      Model.fix t.model (require_delta t v) 1.
  | Requirement.Usage_order vs ->
      let rec pairs = function
        | a :: (b :: _ as rest) ->
            Model.add_constraint ~name t.model
              (Lin_expr.sub
                 (Lin_expr.var (require_delta t a))
                 (Lin_expr.var (require_delta t b)))
              Model.Ge 0.;
            lex_row t g ~name:(Printf.sprintf "lex_%d_%d" a b) a b;
            pairs rest
        | [ _ ] | [] -> ()
      in
      pairs (List.sort_uniq compare vs)

let encode ?(obs = Archex_obs.Ctx.null) template =
  Archex_obs.Trace.with_span (Archex_obs.Ctx.trace obs) "encode" @@ fun () ->
  let model = Model.create () in
  let edges = Hashtbl.create 64 in
  let cand = Template.candidate_edges template in
  List.iter
    (fun (u, v) ->
      let x = Model.bool_var ~name:(Printf.sprintf "e_%d_%d" u v) model in
      Hashtbl.add edges (u, v) x)
    cand;
  let n = Template.node_count template in
  let t =
    { template; model; edges; deltas = Array.make n None }
  in
  (* Usage indicators δ_v = ∨ over incident candidate edges. *)
  let cand_graph = Template.candidate_graph template in
  for v = 0 to n - 1 do
    let incident =
      List.map (fun u -> Hashtbl.find edges (u, v)) (Digraph.pred cand_graph v)
      @ List.map (fun w -> Hashtbl.find edges (v, w))
          (Digraph.succ cand_graph v)
    in
    if incident <> [] then
      t.deltas.(v) <-
        Some
          (Bool_encode.or_var ~name:(Printf.sprintf "delta_%d" v) model
             incident)
  done;
  (* Pair indicators for switch costs: y_{ij} = e_ij ∨ e_ji (single edge
     pairs reuse the edge variable). *)
  let pairs = Hashtbl.create 64 in
  List.iter
    (fun (u, v) ->
      let key = (min u v, max u v) in
      if not (Hashtbl.mem pairs key) then Hashtbl.add pairs key ())
    cand;
  let objective = ref Lin_expr.zero in
  for v = 0 to n - 1 do
    match t.deltas.(v) with
    | None -> ()
    | Some d ->
        let c = (Template.component template v).Archlib.Component.cost in
        if c <> 0. then objective := Lin_expr.add_term !objective d c
  done;
  let add_pair (i, j) () =
    let cost = Template.switch_cost template i j in
    if cost <> 0. then begin
      let y =
        match (Hashtbl.find_opt edges (i, j), Hashtbl.find_opt edges (j, i))
        with
        | Some a, Some b ->
            Bool_encode.or_var ~name:(Printf.sprintf "sw_%d_%d" i j) model
              [ a; b ]
        | Some a, None | None, Some a -> a
        | None, None -> assert false
      in
      objective := Lin_expr.add_term !objective y cost
    end
  in
  Hashtbl.iter add_pair pairs;
  Model.set_objective model !objective;
  List.iteri (fun i req -> lower_requirement t cand_graph i req)
    (Template.requirements template);
  t

let config_of_solution t solution =
  let g = Digraph.create (Template.node_count t.template) in
  Hashtbl.iter
    (fun (u, v) x ->
      if Milp.Solver.solution_value solution x then Digraph.add_edge g u v)
    t.edges;
  g

type outcome =
  | Solved of {
      solution : float array;
      config : Digraph.t;
      objective : float;
      stats : Milp.Solver.run_stats;
    }
  | No_solution of { stats : Milp.Solver.run_stats }
  | Exhausted of {
      error : Archex_resilience.Error.t;
      stats : Milp.Solver.run_stats;
    }

let solve ?obs ?on_event ?rows ?time_limit ?budget t =
  match Milp.Solver.solve ?obs ?on_event ?rows ?time_limit ?budget t.model with
  | Milp.Solver.Optimal { objective; solution }, stats ->
      Solved
        { solution;
          config = config_of_solution t solution;
          objective;
          stats }
  | Milp.Solver.Infeasible, stats -> No_solution { stats }
  | Milp.Solver.Limit_reached { incumbent = Some (objective, solution) },
    stats ->
      (* time-limited solve: the incumbent is feasible, possibly not proven
         optimal — acceptable inside the synthesis loops (the paper's own
         solver ran with a MIP tolerance); the caller sees it in the cost *)
      Logs.warn (fun m ->
          m "Gen_ilp.solve: time limit reached; using incumbent (cost %g)"
            objective);
      Solved
        { solution;
          config = config_of_solution t solution;
          objective;
          stats }
  | Milp.Solver.Limit_reached { incumbent = None }, stats ->
      (* the old silent-truncation hazard: this is NOT infeasibility *)
      let error =
        match budget with
        | Some b -> Archex_resilience.Budget.exhaustion ~stage:"solve" b
        | None ->
            Archex_resilience.Error.Timeout
              { stage = "solve";
                elapsed = stats.Milp.Solver.elapsed;
                limit = Option.value time_limit ~default:0. }
      in
      Exhausted { error; stats }
