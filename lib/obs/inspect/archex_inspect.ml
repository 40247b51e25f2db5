(* Aggregate per-iteration insight records into the inspect report.

   Everything here works off the JSON shape Ilp_mr emits, so the report
   can be rebuilt from a recorded run (registry artifact, checkpoint
   post-mortem) without re-running the synthesis. *)

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

type iteration_summary = {
  index : int;
  rows_total : int;
  rows_carried : int option;
  rows_learned : int;
  redundancy_ratio : float option;
  prefix_overlap : float option;
  total_activity : int;
  learned_activity : int;
}

type t = {
  iterations : iteration_summary list;
  rows : row list;
  dead_learned : row list;
  redundancy_ratio : float option;
  warm_start_potential : float option;
}

let num key j = Option.bind (J.mem key j) J.to_float
let int_of key j = Option.map int_of_float (num key j)
let int_or d key j = Option.value ~default:d (int_of key j)
let str_or d key j =
  Option.value ~default:d (Option.bind (J.mem key j) J.to_str)

let arr_of key j =
  match J.mem key j with Some (J.Arr l) -> l | _ -> []

let activity r = r.props + r.conflicts + r.binding

let row_of_json j =
  match int_of "row" j with
  | None -> None
  | Some id ->
      Some
        {
          id;
          name = str_or (Printf.sprintf "row%d" id) "name" j;
          kind = str_or "template" "kind" j;
          born = int_or 0 "born" j;
          props = int_or 0 "props" j;
          conflicts = int_or 0 "conflicts" j;
          binding = int_or 0 "binding" j;
        }

let build ~insights =
  (* aggregate counters per stable row id across all iterations *)
  let agg : (int, row) Hashtbl.t = Hashtbl.create 64 in
  (* every learned row ever registered, id -> (name, born) *)
  let learned : (int, string * int) Hashtbl.t = Hashtbl.create 16 in
  let iterations =
    List.filter_map
      (fun ins ->
        match ins with
        | J.Obj _ ->
            let index = int_or 0 "iteration" ins in
            let rows_total = int_or 0 "rows_total" ins in
            let rows_learned = int_or 0 "rows_learned" ins in
            let rows_act = List.filter_map row_of_json (arr_of "activity" ins) in
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
              rows_act;
            List.iteri
              (fun i name_j ->
                match J.to_str name_j with
                | None -> ()
                | Some name ->
                    Hashtbl.replace learned (rows_total + i) (name, index))
              (arr_of "learned_names" ins);
            let learned_activity =
              List.fold_left
                (fun acc r ->
                  if String.equal r.kind "learned" then acc + activity r
                  else acc)
                0 rows_act
            in
            Some
              {
                index;
                rows_total;
                rows_carried = int_of "rows_carried" ins;
                rows_learned;
                redundancy_ratio = num "redundancy_ratio" ins;
                prefix_overlap = num "prefix_overlap" ins;
                total_activity =
                  List.fold_left (fun acc r -> acc + activity r) 0 rows_act;
                learned_activity;
              }
        | _ -> None)
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
  let last f =
    List.fold_left (fun acc it -> match f it with Some v -> Some v | None -> acc)
      None iterations
  in
  {
    iterations;
    rows;
    dead_learned;
    redundancy_ratio = last (fun it -> it.redundancy_ratio);
    warm_start_potential =
      (match
         List.filter_map
           (fun ins -> num "warm_start_potential" ins)
           insights
       with
      | [] -> None
      | l -> Some (List.nth l (List.length l - 1)));
  }

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

let opt_num = function None -> J.Null | Some v -> J.Num v

let to_json t =
  let it_json it =
    J.Obj
      [
        ("iteration", J.Num (float_of_int it.index));
        ("rows_total", J.Num (float_of_int it.rows_total));
        ( "rows_carried",
          opt_num (Option.map float_of_int it.rows_carried) );
        ("rows_learned", J.Num (float_of_int it.rows_learned));
        ("redundancy_ratio", opt_num it.redundancy_ratio);
        ("prefix_overlap", opt_num it.prefix_overlap);
        ("total_activity", J.Num (float_of_int it.total_activity));
        ("learned_activity", J.Num (float_of_int it.learned_activity));
      ]
  in
  J.Obj
    [
      ("iterations", J.Arr (List.map it_json t.iterations));
      ("rows", J.Arr (List.map row_json t.rows));
      ("dead_learned", J.Arr (List.map row_json t.dead_learned));
      ("redundancy_ratio", opt_num t.redundancy_ratio);
      ("warm_start_potential", opt_num t.warm_start_potential);
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
  line "- final redundancy ratio: %s" (pct t.redundancy_ratio);
  line "- warm-start potential: %s" (pct t.warm_start_potential);
  line "";
  line "## Redundancy timeline";
  line "";
  line "| iter | rows | carried | learned | redundancy | prefix overlap |";
  line "|-----:|-----:|--------:|--------:|-----------:|---------------:|";
  List.iter
    (fun it ->
      line "| %d | %d | %s | %d | %s | %s |" it.index it.rows_total
        (match it.rows_carried with
        | None -> "-"
        | Some c -> string_of_int c)
        it.rows_learned
        (pct it.redundancy_ratio)
        (pct it.prefix_overlap))
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
