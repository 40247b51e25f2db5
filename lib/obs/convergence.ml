(* Solver convergence timelines.

   Progress events recorded in a trace (instants named "progress", with
   the {!Event} fields as attributes) are folded back into per-solve
   (time, incumbent, best lower bound, gap) timelines.  A single run can
   contain many solver invocations (one per ILP-MR iteration), so the
   stream is segmented: a new segment starts whenever the emitting source
   changes or its [elapsed] clock restarts.  Within a segment the last
   seen incumbent and bound are carried forward, so every point has the
   best-known pair at that instant. *)

type point = {
  t : float;
  elapsed : float;
  kind : Event.kind;
  incumbent : float option;
  bound : float option;
}

type segment = {
  index : int;
  source : string;
  points : point list;
}

type t = {
  segments : segment list;
  iterations : (float * Event.t) list;
}

let gap ~incumbent ~bound =
  if Float.is_nan incumbent || Float.is_nan bound then nan
  else
    Float.max 0. (incumbent -. bound)
    /. Float.max 1e-9 (Float.abs incumbent)

let point_gap p =
  match (p.incumbent, p.bound) with
  | Some incumbent, Some bound -> Some (gap ~incumbent ~bound)
  | _ -> None

(* Carries incumbent/bound within one solver invocation. *)
type builder = {
  mutable src : string;
  mutable last_elapsed : float;
  mutable incumbent : float option;
  mutable bound : float option;
  mutable points : point list; (* reversed *)
  mutable segments : segment list; (* reversed *)
  mutable iterations : (float * Event.t) list; (* reversed *)
}

let flush b =
  if b.points <> [] then begin
    b.segments <-
      { index = List.length b.segments + 1;
        source = b.src;
        points = List.rev b.points }
      :: b.segments;
    b.points <- []
  end

let feed b (t, (ev : Event.t)) =
  match ev.kind with
  | Event.Iteration -> b.iterations <- (t, ev) :: b.iterations
  | Event.Fallback ->
      (* degradation markers carry no (incumbent, bound) information *)
      ()
  | Event.Heartbeat | Event.Incumbent | Event.Bound ->
      (* a source switch or a restarted elapsed clock means a new solver
         invocation: close the segment and forget carried values *)
      if ev.source <> b.src || ev.elapsed < b.last_elapsed -. 1e-9 then begin
        flush b;
        b.src <- ev.source;
        b.incumbent <- None;
        b.bound <- None
      end;
      b.last_elapsed <- ev.elapsed;
      let datum key =
        Option.map snd (List.find_opt (fun (k, _) -> k = key) ev.data)
      in
      (match datum "incumbent" with
      | Some v -> b.incumbent <- Some v
      | None -> ());
      (match datum "bound" with
      | Some v -> b.bound <- Some v
      | None -> ());
      (* heartbeats that carry neither value add no information *)
      if
        ev.kind <> Event.Heartbeat
        || datum "incumbent" <> None
        || datum "bound" <> None
      then
        b.points <-
          { t;
            elapsed = ev.elapsed;
            kind = ev.kind;
            incumbent = b.incumbent;
            bound = b.bound }
          :: b.points

let build timed_events =
  let b =
    { src = "";
      last_elapsed = 0.;
      incumbent = None;
      bound = None;
      points = [];
      segments = [];
      iterations = [] }
  in
  List.iter (feed b) timed_events;
  flush b;
  { segments = List.rev b.segments; iterations = List.rev b.iterations }

(* Trace form: progress instants carry the event fields as attrs and a
   global [ts]; the timeline time axis is seconds since the first trace
   record, so points from different solver invocations stay ordered. *)
let of_events events =
  let t0 =
    List.find_map
      (fun j -> Option.bind (Json.mem "ts" j) Json.to_float)
      events
  in
  let t0 = Option.value t0 ~default:0. in
  build
    (List.filter_map
       (fun j ->
         match (Json.mem "ev" j, Json.mem "name" j) with
         | Some (Json.Str "event"), Some (Json.Str "progress") -> (
             match Json.mem "attrs" j with
             | Some attrs -> (
                 match Event.of_json attrs with
                 | Some ev ->
                     let t =
                       match Option.bind (Json.mem "ts" j) Json.to_float with
                       | Some ts -> ts -. t0
                       | None -> ev.Event.elapsed
                     in
                     Some (t, ev)
                 | None -> None)
             | None -> None)
         | _ -> None)
       events)

let final_gap (seg : segment) =
  match List.rev seg.points with
  | [] -> None
  | last :: _ -> point_gap last

let pp_value ppf = function
  | Some v -> Format.fprintf ppf "%12.5g" v
  | None -> Format.fprintf ppf "%12s" "-"

let pp_segment ppf seg =
  Format.fprintf ppf "solve #%d (%s): %d points@." seg.index seg.source
    (List.length seg.points);
  Format.fprintf ppf "  %10s %-10s %12s %12s %9s@." "t(s)" "kind"
    "incumbent" "bound" "gap";
  List.iter
    (fun p ->
      Format.fprintf ppf "  %10.4f %-10s %a %a " p.t
        (Event.kind_name p.kind) pp_value p.incumbent pp_value p.bound;
      (match point_gap p with
      | Some g -> Format.fprintf ppf "%8.3f%%" (100. *. g)
      | None -> Format.fprintf ppf "%9s" "-");
      Format.pp_print_newline ppf ())
    seg.points

let pp ppf (t : t) =
  if t.segments = [] then
    Format.fprintf ppf "no convergence events in trace@."
  else List.iter (pp_segment ppf) t.segments
