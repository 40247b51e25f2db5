module J = Archex_obs.Json

let format_tag = "archex-mr-ckpt"
let version = 1

type iteration = {
  index : int;
  solution : float array;
  edges : (int * int) list;
  cost : float;
  reliability : float;
  per_sink : (int * float) list;
  k_estimate : int option;
  new_constraints : int;
}

type t = {
  r_star : float;
  strategy : string option;
  iterations : iteration list;
}

let iteration_to_json it =
  J.Obj
    ([ ("index", J.Num (float_of_int it.index));
       ("cost", J.Num it.cost);
       ("reliability", J.Num it.reliability);
       ( "solution",
         J.Arr (Array.to_list (Array.map (fun x -> J.Num x) it.solution)) );
       ( "edges",
         J.Arr
           (List.map
              (fun (u, v) ->
                J.Arr [ J.Num (float_of_int u); J.Num (float_of_int v) ])
              it.edges) );
       ( "per_sink",
         J.Arr
           (List.map
              (fun (s, r) -> J.Arr [ J.Num (float_of_int s); J.Num r ])
              it.per_sink) )
     ]
    @ (match it.k_estimate with
      | Some k -> [ ("k_estimate", J.Num (float_of_int k)) ]
      | None -> [])
    @ [ ("new_constraints", J.Num (float_of_int it.new_constraints)) ])

let to_json ck =
  J.Obj
    ([ ("format", J.Str format_tag);
       ("version", J.Num (float_of_int version));
       ("r_star", J.Num ck.r_star) ]
    @ (match ck.strategy with
      | Some s -> [ ("strategy", J.Str s) ]
      | None -> [])
    @ [ ("iterations", J.Arr (List.map iteration_to_json ck.iterations)) ])

(* Decoding: every field access goes through these checked readers so a
   corrupt or truncated file reports which field is missing, not a crash. *)

let field name json =
  match J.mem name json with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "checkpoint: missing field %S" name)

let num name json =
  Result.bind (field name json) (fun v ->
      match J.to_float v with
      | Some f -> Ok f
      | None -> Error (Printf.sprintf "checkpoint: field %S is not a number"
                         name))

let int_of name json = Result.map int_of_float (num name json)

let str_opt name json =
  match J.mem name json with
  | None -> Ok None
  | Some v -> (
      match J.to_str v with
      | Some s -> Ok (Some s)
      | None ->
          Error (Printf.sprintf "checkpoint: field %S is not a string" name))

let arr name json =
  Result.bind (field name json) (function
    | J.Arr xs -> Ok xs
    | _ -> Error (Printf.sprintf "checkpoint: field %S is not an array" name))

let rec map_result f = function
  | [] -> Ok []
  | x :: rest ->
      Result.bind (f x) (fun y ->
          Result.map (fun ys -> y :: ys) (map_result f rest))

let pair_of_json what = function
  | J.Arr [ a; b ] -> (
      match (J.to_float a, J.to_float b) with
      | Some x, Some y -> Ok (x, y)
      | _ -> Error (Printf.sprintf "checkpoint: malformed %s entry" what))
  | _ -> Error (Printf.sprintf "checkpoint: malformed %s entry" what)

let iteration_of_json json =
  let ( let* ) = Result.bind in
  let* index = int_of "index" json in
  let* cost = num "cost" json in
  let* reliability = num "reliability" json in
  let* sol = arr "solution" json in
  let* sol =
    map_result
      (fun v ->
        match J.to_float v with
        | Some f -> Ok f
        | None -> Error "checkpoint: non-numeric solution entry")
      sol
  in
  let* edges = arr "edges" json in
  let* edges = map_result (pair_of_json "edges") edges in
  let* per_sink = arr "per_sink" json in
  let* per_sink = map_result (pair_of_json "per_sink") per_sink in
  let k_estimate =
    Option.bind (J.mem "k_estimate" json) J.to_float
    |> Option.map int_of_float
  in
  let* new_constraints = int_of "new_constraints" json in
  Ok
    { index;
      solution = Array.of_list sol;
      edges = List.map (fun (u, v) -> (int_of_float u, int_of_float v)) edges;
      cost;
      reliability;
      per_sink = List.map (fun (s, r) -> (int_of_float s, r)) per_sink;
      k_estimate;
      new_constraints }

let of_json json =
  let ( let* ) = Result.bind in
  let* tag = field "format" json in
  let* () =
    if tag = J.Str format_tag then Ok ()
    else Error "checkpoint: not an archex-mr-ckpt file"
  in
  let* v = int_of "version" json in
  let* () =
    if v = version then Ok ()
    else Error (Printf.sprintf "checkpoint: unsupported version %d" v)
  in
  let* r_star = num "r_star" json in
  let* strategy = str_opt "strategy" json in
  (* files written before the solver had one search also carry a
     "backend" name; it selected nothing that still exists *)
  let* its = arr "iterations" json in
  let* iterations = map_result iteration_of_json its in
  Ok { r_star; strategy; iterations }

let of_string s = Result.bind (J.of_string s) of_json

let load path =
  match open_in_bin path with
  | exception Sys_error msg -> Error msg
  | ic ->
      let n = in_channel_length ic in
      let s = really_input_string ic n in
      close_in ic;
      of_string s

let save path ck =
  (* atomic: a kill mid-write must never corrupt the previous good
     checkpoint, or resume loses its whole point *)
  let tmp = path ^ ".tmp" in
  match open_out_bin tmp with
  | exception Sys_error msg -> Error msg
  | oc -> (
      output_string oc (J.to_string (to_json ck));
      output_char oc '\n';
      (* rename-over-old is only atomic on disk if the new bytes reached
         the disk first: flush the channel, then fsync the fd, THEN
         rename.  Without the fsync a crash can leave the rename durable
         but the data not — a zero-length "checkpoint". *)
      flush oc;
      (match Unix.fsync (Unix.descr_of_out_channel oc) with
      | () -> ()
      | exception Unix.Unix_error _ ->
          (* fsync unsupported on this fs: keep best-effort semantics *)
          ());
      close_out oc;
      match Sys.rename tmp path with
      | () -> Ok ()
      | exception Sys_error msg -> Error msg)

let load_checked path =
  match load path with
  | Ok ck -> Ok ck
  | Error msg -> Error (Archex_resilience.Error.Invalid_input [ msg ])
