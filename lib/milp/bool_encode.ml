let sum_vars xs = Lin_expr.sum (List.map (fun x -> Lin_expr.var x) xs)

let or_var ?name m xs =
  let y = Model.bool_var ?name m in
  begin match xs with
  | [] -> Model.fix m y 0.
  | xs ->
      let bound_below x =
        Model.add_constraint m
          (Lin_expr.sub (Lin_expr.var y) (Lin_expr.var x))
          Model.Ge 0.
      in
      List.iter bound_below xs;
      Model.add_constraint m
        (Lin_expr.sub (Lin_expr.var y) (sum_vars xs))
        Model.Le 0.
  end;
  y

let and_var ?name m xs =
  let y = Model.bool_var ?name m in
  begin match xs with
  | [] -> Model.fix m y 1.
  | xs ->
      let bound_above x =
        Model.add_constraint m
          (Lin_expr.sub (Lin_expr.var y) (Lin_expr.var x))
          Model.Le 0.
      in
      List.iter bound_above xs;
      let k = List.length xs in
      Model.add_constraint m
        (Lin_expr.sub (Lin_expr.var y) (sum_vars xs))
        Model.Ge (float_of_int (1 - k))
  end;
  y

let implies_or ?name m a bs =
  Model.add_constraint ?name m
    (Lin_expr.sub (Lin_expr.var a) (sum_vars bs))
    Model.Le 0.

let at_least_k ?name m xs k =
  Model.add_constraint ?name m (sum_vars xs) Model.Ge (float_of_int k)

let count_channel ?(prefix = "cnt") m xs =
  let n = List.length xs in
  let make k = Model.bool_var ~name:(Printf.sprintf "%s_%d" prefix k) m in
  let ind = Array.init (n + 1) make in
  let ind_list = Array.to_list ind in
  Model.add_constraint ~name:(prefix ^ "_one") m (sum_vars ind_list) Model.Eq
    1.;
  let weighted =
    Lin_expr.of_terms (List.mapi (fun k x -> (x, float_of_int k))
                         ind_list)
  in
  Model.add_constraint ~name:(prefix ^ "_link") m
    (Lin_expr.sub weighted (sum_vars xs))
    Model.Eq 0.;
  ind
