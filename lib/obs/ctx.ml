type t = {
  trace : Trace.t;
  metrics : Metrics.t;
}

let null = { trace = Trace.null; metrics = Metrics.null }

let make ?(trace = Trace.null) ?(metrics = Metrics.null) () =
  { trace; metrics }

let trace t = t.trace
let metrics t = t.metrics
