(* Aggregate per-iteration insight records into the inspect report. *)

module J = Archex_obs.Json

type row = {
  id : int;
  name : string;
  kind : string;
  born : int;
  props : int;
  conflicts : int;
  binding : int;
}

type insight = {
  iteration : int;
  rows_total : int;
  activity : row list;
  learned_names : string list;
}

type iteration_summary = {
  index : int;
  rows_total : int;
  rows_learned : int;
  total_activity : int;
  learned_activity : int;
}

type t = {
  iterations : iteration_summary list;
  rows : row list;
  dead_learned : row list;
}

let activity r = r.props + r.conflicts + r.binding

let build ~insights =
  (* aggregate counters per stable row id across all iterations *)
  let agg : (int, row) Hashtbl.t = Hashtbl.create 64 in
  (* every learned row ever registered, id -> (name, born) *)
  let learned : (int, string * int) Hashtbl.t = Hashtbl.create 16 in
  let iterations =
    List.map
      (fun (ins : insight) ->
        List.iter
          (fun r ->
            let merged =
              match Hashtbl.find_opt agg r.id with
              | None -> r
              | Some p ->
                  {
                    p with
                    props = p.props + r.props;
                    conflicts = p.conflicts + r.conflicts;
                    binding = p.binding + r.binding;
                  }
            in
            Hashtbl.replace agg r.id merged)
          ins.activity;
        List.iteri
          (fun i name ->
            Hashtbl.replace learned (ins.rows_total + i) (name, ins.iteration))
          ins.learned_names;
        let sum keep =
          List.fold_left
            (fun acc r -> if keep r then acc + activity r else acc)
            0 ins.activity
        in
        {
          index = ins.iteration;
          rows_total = ins.rows_total;
          rows_learned = List.length ins.learned_names;
          total_activity = sum (fun _ -> true);
          learned_activity = sum (fun r -> String.equal r.kind "learned");
        })
      insights
  in
  let rows =
    Hashtbl.fold (fun _ r acc -> r :: acc) agg []
    |> List.filter (fun r -> activity r > 0)
    |> List.sort (fun a b -> compare a.id b.id)
  in
  let dead_learned =
    Hashtbl.fold
      (fun id (name, born) acc ->
        match Hashtbl.find_opt agg id with
        | Some r when activity r > 0 -> acc
        | _ ->
            {
              id;
              name;
              kind = "learned";
              born;
              props = 0;
              conflicts = 0;
              binding = 0;
            }
            :: acc)
      learned []
    |> List.sort (fun a b -> compare a.id b.id)
  in
  { iterations; rows; dead_learned }

let top_pruners ?(k = 10) t =
  let ranked =
    List.sort
      (fun a b ->
        match compare b.conflicts a.conflicts with
        | 0 -> compare b.props a.props
        | c -> c)
      t.rows
  in
  List.filteri (fun i _ -> i < k) ranked

let row_json r =
  J.Obj
    [
      ("row", J.Num (float_of_int r.id));
      ("name", J.Str r.name);
      ("kind", J.Str r.kind);
      ("born", J.Num (float_of_int r.born));
      ("props", J.Num (float_of_int r.props));
      ("conflicts", J.Num (float_of_int r.conflicts));
      ("binding", J.Num (float_of_int r.binding));
    ]

let to_json t =
  let it_json it =
    J.Obj
      [
        ("iteration", J.Num (float_of_int it.index));
        ("rows_total", J.Num (float_of_int it.rows_total));
        ("rows_learned", J.Num (float_of_int it.rows_learned));
        ("total_activity", J.Num (float_of_int it.total_activity));
        ("learned_activity", J.Num (float_of_int it.learned_activity));
      ]
  in
  J.Obj
    [
      ("iterations", J.Arr (List.map it_json t.iterations));
      ("rows", J.Arr (List.map row_json t.rows));
      ("dead_learned", J.Arr (List.map row_json t.dead_learned));
    ]

let pct = function
  | None -> "-"
  | Some v -> Printf.sprintf "%.0f%%" (100. *. v)

let to_markdown ?(top_k = 10) t =
  let b = Buffer.create 2048 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b s;
                                   Buffer.add_char b '\n') fmt in
  line "# Search-effectiveness report";
  line "";
  let n_learned_rows =
    List.length t.dead_learned
    + List.length (List.filter (fun r -> String.equal r.kind "learned") t.rows)
  in
  line "- iterations inspected: %d" (List.length t.iterations);
  line "- learned rows: %d (%d dead)" n_learned_rows
    (List.length t.dead_learned);
  line "";
  line "## Model growth";
  line "";
  line "| iter | rows | learned |";
  line "|-----:|-----:|--------:|";
  List.iter
    (fun it -> line "| %d | %d | %d |" it.index it.rows_total it.rows_learned)
    t.iterations;
  line "";
  line "## Top pruning rows";
  line "";
  (match top_pruners ~k:top_k t with
  | [] -> line "(no row activity recorded)"
  | top ->
      line "| row | name | kind | born | conflicts | props | binding |";
      line "|----:|------|------|-----:|----------:|------:|--------:|";
      List.iter
        (fun r ->
          line "| %d | %s | %s | %d | %d | %d | %d |" r.id r.name r.kind
            r.born r.conflicts r.props r.binding)
        top);
  line "";
  line "## Learned-cut effectiveness";
  line "";
  (match t.iterations with
  | [] -> line "(no iterations)"
  | its ->
      line "| iter | learned activity | share of total |";
      line "|-----:|-----------------:|---------------:|";
      List.iter
        (fun it ->
          let share =
            if it.total_activity = 0 then None
            else
              Some
                (float_of_int it.learned_activity
                /. float_of_int it.total_activity)
          in
          line "| %d | %d | %s |" it.index it.learned_activity (pct share))
        its);
  line "";
  line "## Dead learned rows";
  line "";
  (match t.dead_learned with
  | [] -> line "(none — every learned constraint showed solver activity)"
  | dead ->
      List.iter
        (fun r -> line "- row %d `%s` (born iteration %d)" r.id r.name r.born)
        dead);
  Buffer.contents b
