type outcome =
  | Optimal of { objective : float; solution : float array }
  | Infeasible

let solve ?(max_vars = 25) m =
  let n = Model.var_count m in
  let free =
    List.filter
      (fun x -> Model.lower_bound m x < 0.5 && Model.upper_bound m x > 0.5)
      (List.init n Fun.id)
  in
  let k = List.length free in
  if k > max_vars then
    invalid_arg
      (Printf.sprintf "Brute: %d free variables exceed limit %d" k max_vars);
  let base =
    Array.init n (fun x -> if Model.lower_bound m x > 0.5 then 1. else 0.)
  in
  let free = Array.of_list free in
  let best = ref None in
  let total = 1 lsl k in
  for mask = 0 to total - 1 do
    let value = Array.copy base in
    for i = 0 to k - 1 do
      value.(free.(i)) <- if mask land (1 lsl i) <> 0 then 1. else 0.
    done;
    if Model.is_feasible m (fun x -> value.(x)) then begin
      let obj = Model.objective_value m (fun x -> value.(x)) in
      match !best with
      | Some (b, _) when b <= obj -> ()
      | _ -> best := Some (obj, value)
    end
  done;
  match !best with
  | Some (objective, solution) -> Optimal { objective; solution }
  | None -> Infeasible
