(* The ledger's workloads: seeded job lists over the paper's EPS templates.

   A job is one synthesis request.  Every job runs through the library's
   public entry points with their defaults, under [time_limit]. *)

type algo = Mr | Ar

type job = {
  g : int option;  (** generators per layer; [None] is the base template *)
  r_star : float;
  algo : algo;
  certify : bool;
}

(* One per-solve limit for every call, the bench harness constant.  The
   scratch PB path gives its optimistic probe half of it, so a different
   limit can change the search itself. *)
let time_limit = 120.

let id j =
  Printf.sprintf "%s%s g=%s r*=%g"
    (match j.algo with Mr -> "mr" | Ar -> "ar")
    (if j.certify then "+cert" else "")
    (match j.g with None -> "base" | Some g -> string_of_int g)
    j.r_star

let template_of g =
  let inst =
    match g with
    | None -> Eps.Eps_template.base ()
    | Some g -> Eps.Eps_template.make ~generators:g
  in
  inst.Eps.Eps_template.template

(* The families' requirement range.  Every template and r* in it is
   proved optimal well inside [time_limit]; Tables II/III at r* = 1e-11 and
   ILP-AR at r* <= 2e-10 run into the limit and would time the limit, not
   the program. *)
let r_lo = 1e-6
let r_hi = 2e-3

(* Requirement classes of the EPS family.  Generators, AC buses and
   rectifiers fail with p = 2e-4, so one path through them fails with about
   3p: r* at or above 3p needs no redundancy, below 3p redundancy at one of
   the three types, below 2p at two, below p at all three.  The class sets
   the number of ILP-MR iterations and most of the solve time. *)
let classes ~tight =
  let p = Eps.Eps_library.component_fail_prob in
  [ (r_lo, p, tight); (p, 2. *. p, 1); (2. *. p, 3. *. p, 1);
    (3. *. p, r_hi, 1) ]

let shuffle rng l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let k = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(k);
    a.(k) <- t
  done;
  Array.to_list a

(* Per template, [tight] jobs below p and one in each looser class, each r*
   drawn log-uniformly from its share of the class, in seeded order.
   Fixed class counts give every seed the same mix of work, so runs on
   different seeds are comparable. *)
let family ~gs ~tight ~algo ~certify seed =
  let rng = Random.State.make [| seed |] in
  List.concat_map
    (fun g ->
      List.concat_map
        (fun (lo, hi, k) ->
          List.init k (fun i ->
              let u =
                (float_of_int i +. Random.State.float rng 1.) /. float_of_int k
              in
              { g; r_star = lo *. ((hi /. lo) ** u); algo; certify }))
        (classes ~tight))
    gs
  |> shuffle rng

type workload = {
  name : string;
  jobs : int -> job list;  (** the job list of a seed *)
  smoke : job list;  (** the self-test's jobs: three of seed 1 by default *)
}

let workload ?smoke name jobs =
  let smoke =
    match smoke with
    | Some s -> s
    | None -> List.filteri (fun i _ -> i < 3) (jobs 1)
  in
  { name; jobs; smoke }

let eps_family = [ None; Some 2; Some 3; Some 4; Some 5; Some 6 ]

let all =
  let fig2 = { g = None; r_star = 2e-10; algo = Mr; certify = false } in
  [ (* a fixed paper instance: the seed does not change it; the self-test
       runs the same code at a target it meets in a tenth of a second *)
    workload "fig2_mr"
      ~smoke:[ { fig2 with r_star = 2e-6 } ]
      (fun _ -> [ fig2 ]);
    workload "mr_family"
      (family ~gs:eps_family ~tight:2 ~algo:Mr ~certify:false);
    workload "ar_family"
      (family ~gs:eps_family ~tight:2 ~algo:Ar ~certify:false);
    workload "certified_mr"
      (family ~gs:[ Some 2; Some 3 ] ~tight:3 ~algo:Mr ~certify:true) ]

let names = List.map (fun w -> w.name) all
let find name = List.find_opt (fun w -> w.name = name) all
