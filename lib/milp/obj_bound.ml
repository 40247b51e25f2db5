module Imap = Map.Make (Int)

(* A candidate row: support variables (unit coefficients, non-negative
   objective cost), requirement k ≥ 1. *)
type candidate = { support : int list; forced_cost : float }

let candidate_of_row obj row =
  let unit_ge terms rhs =
    (* Σ x over [terms] ≥ rhs with every coefficient 1 *)
    if rhs < 0.5 then None
    else if List.for_all (fun (x, a) -> a = 1. && obj x >= 0.) terms
    then begin
      let k = int_of_float (Float.ceil (rhs -. 1e-9)) in
      let support = List.map fst terms in
      if k > List.length support then (* infeasible row: no useful bound *)
        None
      else begin
        let costs = List.sort Float.compare (List.map (fun (x, _) -> obj x) terms) in
        let rec take n acc = function
          | c :: rest when n > 0 -> take (n - 1) (acc +. c) rest
          | _ -> acc
        in
        Some { support; forced_cost = take k 0. costs }
      end
    end
    else None
  in
  let terms = Lin_expr.terms row.Model.expr in
  match row.Model.cmp with
  | Model.Ge -> unit_ge terms row.rhs
  | Model.Eq -> unit_ge terms row.rhs
  | Model.Le ->
      (* -Σ ≥ -rhs with all coefficients -1: Σ (1-x) ≥ n - rhs *)
      if List.for_all (fun (_, a) -> a = -1.) terms then
        unit_ge
          (List.map (fun (x, _) -> (x, 1.)) terms)
          (-.row.rhs)
      else None

let lower_bound m =
  let obj_expr = Model.objective m in
  let obj x = Lin_expr.coef obj_expr x in
  let candidates =
    List.filter_map
      (candidate_of_row obj)
      (Model.constraints m)
    |> List.filter (fun c -> c.forced_cost > 0.)
    |> List.sort (fun a b -> Float.compare b.forced_cost a.forced_cost)
  in
  (* greedy disjoint packing, most valuable rows first *)
  let packed = ref 0. in
  let covered = Hashtbl.create 64 in
  List.iter
    (fun c ->
      if List.for_all (fun x -> not (Hashtbl.mem covered x)) c.support
      then begin
        List.iter (fun x -> Hashtbl.replace covered x ()) c.support;
        packed := !packed +. c.forced_cost
      end)
    candidates;
  (* variables outside packed supports contribute at least min(0, cost·lb) *)
  let rest = ref 0. in
  List.iter
    (fun (x, c) ->
      if not (Hashtbl.mem covered x) then
        if c > 0. then rest := !rest +. (c *. Model.lower_bound m x)
        else rest := !rest +. (c *. Model.upper_bound m x))
    (Lin_expr.terms obj_expr);
  Lin_expr.constant obj_expr +. !packed +. !rest

let strengthen m =
  let bound = lower_bound m in
  if not (Float.is_finite bound) then None
  else begin
    (* trivial bound without the packing *)
    let obj_expr = Model.objective m in
    let trivial =
      List.fold_left
        (fun acc (x, c) ->
          if c > 0. then acc +. (c *. Model.lower_bound m x)
          else acc +. (c *. Model.upper_bound m x))
        (Lin_expr.constant obj_expr)
        (Lin_expr.terms obj_expr)
    in
    if bound > trivial +. 1e-9 then begin
      Model.add_constraint ~name:"objective_lower_bound" m obj_expr Model.Ge
        (bound -. Lin_expr.constant obj_expr);
      Some bound
    end
    else None
  end
