(* Per-layer totals, folded from the trace the library emits itself.

   The traced run calls [Ilp_mr.run] / [Ilp_ar.run] with a tracer, and the
   library opens one span per layer call: [encode] (Gen_ilp), [compile]
   (Ilp_ar), [solve] (Solver, Pb_solver and Obj_bound under it),
   [reliability] (Rel_analysis), [learn] (Learn_cons) and [certify]
   (Archex_cert), under [iteration] on ILP-MR.  The ledger adds a [job]
   span around each synthesis, a [check] span around a certified chain's
   check, and an [incumbent] instant for every incumbent the solver
   reports.  A layer span inside another (the [encode] of an ILP-AR
   [compile]) counts towards the outer one, so the layer times split the
   attributed part of the wall without overlap. *)

module J = Archex_obs.Json

let layers =
  [ "encode"; "compile"; "solve"; "reliability"; "learn"; "certify"; "check" ]

type t = {
  seconds : (string, float) Hashtbl.t;  (** outermost layer spans, by name *)
  calls : (string, int) Hashtbl.t;  (** ended spans, by name *)
  mutable wall : float;  (** summed [job] spans *)
  mutable search : float;  (** each solve's start to its last incumbent *)
  mutable proof : float;  (** each solve's last incumbent to its end *)
  mutable rows : int;  (** rows of every model solved *)
}

let seconds t name = Option.value (Hashtbl.find_opt t.seconds name) ~default:0.
let calls t name = Option.value (Hashtbl.find_opt t.calls name) ~default:0
let attributed t = Hashtbl.fold (fun _ s acc -> acc +. s) t.seconds 0.

let of_events events =
  let t =
    { seconds = Hashtbl.create 8; calls = Hashtbl.create 16; wall = 0.;
      search = 0.; proof = 0.; rows = 0 }
  in
  let outer = ref None (* id of the open outermost layer span *)
  and solve_start = ref 0.
  and incumbent = ref None in
  List.iter
    (fun e ->
      let num ?(of_ = e) k =
        Option.value ~default:0. (Option.bind (J.mem k of_) J.to_float)
      in
      let name = Option.value ~default:"" (Option.bind (J.mem "name" e) J.to_str) in
      match Option.bind (J.mem "ev" e) J.to_str with
      | Some "begin" ->
          if name = "solve" then begin
            solve_start := num "ts";
            incumbent := None;
            let attrs = Option.value (J.mem "attrs" e) ~default:J.Null in
            t.rows <- t.rows + int_of_float (num ~of_:attrs "constraints")
          end;
          if !outer = None && List.mem name layers then outer := Some (num "id")
      | Some "event" when name = "incumbent" -> incumbent := Some (num "ts")
      | Some "end" ->
          let dur = num "dur" in
          Hashtbl.replace t.calls name (calls t name + 1);
          if name = "job" then t.wall <- t.wall +. dur;
          if name = "solve" then begin
            let found = Option.value !incumbent ~default:!solve_start in
            t.search <- t.search +. (found -. !solve_start);
            t.proof <- t.proof +. (num "ts" -. found)
          end;
          if !outer = Some (num "id") then begin
            outer := None;
            Hashtbl.replace t.seconds name (seconds t name +. dur)
          end
      | _ -> ())
    events;
  t
