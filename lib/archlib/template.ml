module Digraph = Netgraph.Digraph
module Partition = Netgraph.Partition

type t = {
  components : Component.t array;
  candidate : Digraph.t;
  switch_costs : (int * int, float) Hashtbl.t; (* unordered key: min,max *)
  mutable sources : int list;
  mutable sinks : int list;
  mutable type_names : string array option;
  mutable chain : int list option;
  mutable reqs_rev : Requirement.t list;
}

let create components =
  if Array.length components = 0 then invalid_arg "Template.create: no nodes";
  { components;
    candidate = Digraph.create (Array.length components);
    switch_costs = Hashtbl.create 64;
    sources = [];
    sinks = [];
    type_names = None;
    chain = None;
    reqs_rev = [] }

let node_count t = Array.length t.components

let component t v =
  if v < 0 || v >= node_count t then invalid_arg "Template.component";
  t.components.(v)

let components t = Array.copy t.components

let pair_key i j = (min i j, max i j)

let add_candidate_edge ?(switch_cost = 0.) t u v =
  Digraph.add_edge t.candidate u v;
  if not (Hashtbl.mem t.switch_costs (pair_key u v)) then
    Hashtbl.add t.switch_costs (pair_key u v) switch_cost

let add_candidate_pair ?switch_cost t u v =
  add_candidate_edge ?switch_cost t u v;
  add_candidate_edge ?switch_cost t v u

let candidate_graph t = Digraph.copy t.candidate
let candidate_edges t = Digraph.edges t.candidate
let is_candidate t u v = Digraph.mem_edge t.candidate u v

let switch_cost t i j =
  match Hashtbl.find_opt t.switch_costs (pair_key i j) with
  | Some c -> c
  | None -> 0.

let check_nodes t = List.iter (fun v -> ignore (component t v))

let set_sources t vs = check_nodes t vs; t.sources <- List.sort_uniq compare vs
let set_sinks t vs = check_nodes t vs; t.sinks <- List.sort_uniq compare vs
let sources t = t.sources
let sinks t = t.sinks

let partition t =
  let type_of_node = Array.map (fun c -> c.Component.type_id) t.components in
  let names =
    match t.type_names with
    | Some names -> names
    | None ->
        (* first component of each type names it *)
        let count =
          Array.fold_left (fun acc ty -> max acc (ty + 1)) 0 type_of_node
        in
        let names = Array.make count "" in
        Array.iteri
          (fun v ty ->
            if names.(ty) = "" then
              names.(ty) <- t.components.(v).Component.name)
          type_of_node;
        names
  in
  Partition.make ~names type_of_node

let set_type_names t names = t.type_names <- Some names

let set_type_chain t chain =
  let part = partition t in
  List.iter
    (fun ty ->
      if ty < 0 || ty >= Partition.type_count part then
        invalid_arg "Template.set_type_chain: unknown type")
    chain;
  t.chain <- Some chain

let type_chain t = t.chain

let add_requirement t r = t.reqs_rev <- r :: t.reqs_rev
let requirements t = List.rev t.reqs_rev

let config_of_edges t edges =
  let g = Digraph.create (node_count t) in
  let add (u, v) =
    if not (is_candidate t u v) then
      invalid_arg
        (Printf.sprintf "Template.config_of_edges: (%d,%d) not a candidate"
           u v);
    Digraph.add_edge g u v
  in
  List.iter add edges;
  g

let used_in_config _t config = Digraph.used_nodes config

let configuration_cost t config =
  let node_cost =
    List.fold_left
      (fun acc v -> acc +. t.components.(v).Component.cost)
      0. (Digraph.used_nodes config)
  in
  let pairs =
    List.sort_uniq compare
      (List.map (fun (u, v) -> pair_key u v) (Digraph.edges config))
  in
  let switch =
    List.fold_left (fun acc (i, j) -> acc +. switch_cost t i j) 0. pairs
  in
  node_cost +. switch

let expand_redundant_pairs t config =
  let part = partition t in
  let g = Digraph.copy config in
  let changed = ref true in
  while !changed do
    changed := false;
    let share (u, v) =
      if Partition.same_type part u v then begin
        let add a b =
          if a <> b && not (Digraph.mem_edge g a b) then begin
            Digraph.add_edge g a b;
            changed := true
          end
        in
        List.iter (fun p -> if p <> v then add p v) (Digraph.pred g u);
        List.iter (fun p -> if p <> u then add p u) (Digraph.pred g v);
        List.iter (fun s -> if s <> v then add v s) (Digraph.succ g u);
        List.iter (fun s -> if s <> u then add u s) (Digraph.succ g v)
      end
    in
    List.iter share (Digraph.edges g)
  done;
  g

(* A requirement with the swap [s] applied to its node references, its
   lists sorted so that rows equal as constraints compare equal. *)
let canonical ?(s = Fun.id) r =
  let edge (u, v) = (s u, s v) in
  let sorted f l = List.sort compare (List.map f l) in
  match r with
  | Requirement.Edge_card (es, c, k) ->
      Requirement.Edge_card (sorted edge es, c, k)
  | Linear_edges (ts, c, rhs) ->
      Linear_edges (sorted (fun (e, w) -> (edge e, w)) ts, c, rhs)
  | Conditional_connect (ante, cons) ->
      Conditional_connect (sorted edge ante, sorted edge cons)
  | Usage_balance (ps, cs) ->
      let node (v, w) = (s v, w) in
      Usage_balance (sorted node ps, sorted node cs)
  | Require_used v -> Require_used (s v)
  | Usage_order vs -> Usage_order (sorted s vs)

let names_node r x =
  let edge (u, v) = u = x || v = x in
  match r with
  | Requirement.Edge_card (es, _, _) -> List.exists edge es
  | Linear_edges (ts, _, _) -> List.exists (fun (e, _) -> edge e) ts
  | Conditional_connect (ante, cons) ->
      List.exists edge ante || List.exists edge cons
  | Usage_balance (ps, cs) ->
      List.exists (fun (v, _) -> v = x) ps
      || List.exists (fun (v, _) -> v = x) cs
  | Require_used v -> v = x
  | Usage_order vs -> List.mem x vs

(* What tells nodes [a] and [b] apart, so that the swap σ = (a b) is not
   an automorphism of the encoded model: the attributes Eq. 1 and the
   analyses read, the candidate neighbourhoods with their switch costs,
   the sources, and every requirement that names one of them (other
   than the interchangeability declarations themselves). *)
let swap_differences t a b =
  let s v = if v = a then b else if v = b then a else v in
  let ca = t.components.(a) and cb = t.components.(b) in
  let same_image nbrs =
    List.sort compare (List.map s (nbrs t.candidate a))
    = List.sort compare (nbrs t.candidate b)
  in
  let switch_costs_match =
    List.for_all
      (fun u -> switch_cost t a u = switch_cost t b (s u))
      (Digraph.pred t.candidate a @ Digraph.succ t.candidate a)
  in
  let reqs =
    List.filter
      (function Requirement.Usage_order _ -> false | _ -> true)
      (requirements t)
  in
  let canon = List.map (fun r -> canonical r) reqs in
  let requirements_match =
    List.for_all
      (fun r ->
        (not (names_node r a || names_node r b))
        || List.mem (canonical ~s r) canon)
      reqs
  in
  List.filter_map
    (fun (what, same) -> if same then None else Some what)
    [ ("type", ca.Component.type_id = cb.Component.type_id);
      ("cost", ca.cost = cb.cost);
      ("failure probability", ca.fail_prob = cb.fail_prob);
      ("capacity", ca.capacity = cb.capacity);
      ("candidate predecessors", same_image Digraph.pred);
      ("candidate successors", same_image Digraph.succ);
      ("switch costs", switch_costs_match);
      ("source membership", List.mem a t.sources = List.mem b t.sources);
      ("requirements", requirements_match) ]

let validate_all t =
  let bad = ref [] in
  let check cond msg = if not cond then bad := msg :: !bad in
  (* component attributes: every violation of every component *)
  Array.iteri
    (fun v c ->
      List.iter
        (fun m -> check false (Printf.sprintf "component %d: %s" v m))
        (Component.violations c))
    t.components;
  (* switch costs *)
  Hashtbl.iter
    (fun (i, j) c ->
      check
        (Float.is_finite c && c >= 0.)
        (Printf.sprintf
           "switch cost on pair {%d,%d} is %g (must be finite and >= 0)" i j
           c))
    t.switch_costs;
  (* terminals *)
  check (t.sources <> []) "no sources declared";
  check (t.sinks <> []) "no sinks declared";
  List.iter
    (fun s ->
      check
        (not (List.mem s t.sinks))
        (Printf.sprintf "node %d is both a source and a sink" s))
    t.sources;
  (* requirement references: every edge must be a candidate, every node
     reference in range and connectable (Gen_ilp rejects isolated nodes) *)
  let n = node_count t in
  let has_candidate v =
    v >= 0 && v < n
    && (Digraph.pred t.candidate v <> [] || Digraph.succ t.candidate v <> [])
  in
  let check_edge i (u, v) =
    check (is_candidate t u v)
      (Printf.sprintf "requirement %d references non-candidate edge (%d,%d)"
         i u v)
  in
  let check_node i v =
    check (has_candidate v)
      (Printf.sprintf
         "requirement %d references node %d with no candidate edges" i v)
  in
  List.iteri
    (fun i req ->
      match req with
      | Requirement.Edge_card (edges, _, _) -> List.iter (check_edge i) edges
      | Requirement.Linear_edges (terms, _, _) ->
          List.iter (fun (e, _) -> check_edge i e) terms
      | Requirement.Conditional_connect (ante, cons) ->
          List.iter (check_edge i) ante;
          List.iter (check_edge i) cons
      | Requirement.Usage_balance (providers, consumers) ->
          List.iter (fun (v, _) -> check_node i v) providers;
          List.iter (fun (v, _) -> check_node i v) consumers
      | Requirement.Require_used v -> check_node i v
      | Requirement.Usage_order vs ->
          List.iter (check_node i) vs;
          (* the declaration promises each adjacent swap is a symmetry;
             ILP-MR learns rows per sink, so sinks never are *)
          List.iter
            (fun v ->
              check
                (not (List.mem v t.sinks))
                (Printf.sprintf
                   "requirement %d declares sink %d interchangeable" i v))
            vs;
          let rec pairs = function
            | a :: (b :: _ as rest) ->
                (match swap_differences t a b with
                | [] -> ()
                | ds ->
                    check false
                      (Printf.sprintf
                         "requirement %d declares nodes %d and %d \
                          interchangeable, but they differ in %s"
                         i a b (String.concat ", " ds)));
                pairs rest
            | [ _ ] | [] -> ()
          in
          pairs
            (List.sort_uniq compare
               (List.filter (fun v -> v >= 0 && v < n) vs)))
    (List.rev t.reqs_rev);
  (* type chain *)
  (match t.chain with
  | None -> ()
  | Some [] -> check false "empty type chain"
  | Some (first :: _ as chain) ->
      if t.sources <> [] && t.sinks <> [] then begin
        let part = partition t in
        let last = List.hd (List.rev chain) in
        let source_types =
          List.sort_uniq compare (List.map (Partition.type_of part) t.sources)
        and sink_types =
          List.sort_uniq compare (List.map (Partition.type_of part) t.sinks)
        in
        check (source_types = [ first ])
          "type chain must start at the sources' type";
        check (sink_types = [ last ]) "type chain must end at the sinks' type"
      end);
  match List.rev !bad with [] -> Ok () | vs -> Error vs

let validate t =
  let ( let* ) r f = Result.bind r f in
  let check cond msg = if cond then Ok () else Error msg in
  let* () = check (t.sources <> []) "no sources declared" in
  let* () = check (t.sinks <> []) "no sinks declared" in
  let* () =
    check
      (List.for_all (fun s -> not (List.mem s t.sinks)) t.sources)
      "sources and sinks overlap"
  in
  match t.chain with
  | None -> Ok ()
  | Some chain -> (
      let part = partition t in
      let source_types =
        List.sort_uniq compare
          (List.map (Partition.type_of part) t.sources)
      and sink_types =
        List.sort_uniq compare (List.map (Partition.type_of part) t.sinks)
      in
      match (chain, List.rev chain) with
      | first :: _, last :: _ ->
          let* () =
            check (source_types = [ first ])
              "type chain must start at the sources' type"
          in
          check (sink_types = [ last ])
            "type chain must end at the sinks' type"
      | [], _ | _, [] -> Error "empty type chain")
